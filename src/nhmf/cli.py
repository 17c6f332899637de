"""Batch command-line front end with stable JSON I/O.

Every subcommand reads/writes the JSON form file format or a JSON verdict
document; output is deterministic and bit-exact across runs.  Exit code 0
iff the command succeeded.

One table, _ROOT, gives each command's help line, handler, options and
positional arguments (or subcommands), COMMANDS and every --help text, and
one small parser reads each command line by it with the rules of argparse
(of Python 3.10 and 3.11): a cold process imports no argparse or gettext.

A process enters through main_process, which runs main and then freezes the
collector (gc.freeze) before the interpreter exits: shutdown still flushes
stdout and stderr, runs atexit handlers and frees every module by reference
count, but its full collections no longer traverse the objects the command
left alive, which a process about to exit never needs swept.  main itself
leaves the collector as it found it, so that tests and library callers can
run commands in-process.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from importlib import import_module
from types import SimpleNamespace

from . import __version__
from .arith import Record, is_int, read_rational
from .errors import DomainError, FormFileError, NhmfError, UsageError


class CommandResult(Record):
    _fields = ("payload", "diagnostics", "code", "out_path", "json_indent", "text")

    def __init__(self, payload: dict, diagnostics: list[str] | None = None, code: str | None = None,
                 out_path: str | None = None, json_indent: int | None = None, text: str = ""):
        self.payload, self.diagnostics = payload, [] if diagnostics is None else diagnostics
        self.code = code  # the error code; None iff the command succeeded
        self.out_path, self.json_indent = out_path, json_indent
        self.text = text  # the rendered document, or the text -h, --help or --version asked for

    @property
    def ok(self) -> bool:
        return self.code is None

    @property
    def document(self) -> dict:
        """The payload, or for a failure the error document."""
        if self.ok:
            return self.payload
        return {"status": "error", **self.payload, "diagnostics": self.diagnostics}


def _failure(code: str, message: str, diagnostics=(), extra=None) -> CommandResult:
    """The failed result; every error document of the CLI is built here."""
    return CommandResult({"error": code, "message": message, **(extra or {})}, list(diagnostics), code)


# The largest --json-indent: a wider indent only pads every line, and one
# far past it would exhaust memory or overflow an index.
MAX_JSON_INDENT = 64


def _engine(name: str):
    """The engine module nhmf.<name>, imported when a command first needs it."""
    return import_module(f"{__package__}.{name}")


def _read_form(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise FormFileError(f"cannot read form file {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise FormFileError(f"form file {path!r} is not valid JSON: {exc}") from exc
    return _engine("series").NearlyHolomorphicForm.from_doc(doc)


# -- command handlers: each takes the parsed arguments and returns the JSON
# payload or a finished CommandResult.  This module imports no part of the
# engine but arith and errors: a handler reaches the rest through _engine, so
# that a cold process loads only the modules its command calls.


def _operator(args, name: str) -> dict:
    """raise or lower: operators.<name>_weight of the form, or with --analytic
    <name>_analytic, the analytic image as a pi-scalar times a form."""
    form = _read_form(args.infile)
    image = getattr(_engine("operators"), f"{name}_{'analytic' if args.analytic else 'weight'}")(form)
    if args.analytic:
        return {"scalar": image.scalar.to_json(), "form": image.form.to_doc()}
    return image.to_doc()


def _constant_term(args) -> dict:
    laurent = _engine("laurent")
    family = "trivial" if args.character == "trivial" else "nontrivial"
    local = [laurent.LaurentScalar.order_only(args.k - 1, order) for order in args.local_order]
    return laurent.constant_term_report(args.k, args.d, family, local).to_json()


def _hilbert(args) -> dict:
    quadratic = _engine("quadratic")
    a, b = read_rational(args.a, UsageError), read_rational(args.b, UsageError)
    place = quadratic.Place.parse(args.v)
    symbol = quadratic.hilbert_symbol(a, b, place)
    return {"a": str(a), "b": str(b), "place": place.render(), "symbol": symbol}


def _invariants(args) -> dict:
    quadratic = _engine("quadratic")
    space = quadratic.QuadSpace2D(read_rational(args.a1, UsageError), read_rational(args.a2, UsageError))
    places = []
    for v in quadratic.relevant_places(space.a1, space.a2):  # -a1*a2 has no prime that a1 or a2 has not
        inv = quadratic.local_invariants(space, v)
        places.append({"place": v.render(), "chi_nontrivial": inv.chi_nontrivial, "epsilon": inv.epsilon})
    a1, a2, disc = map(str, (space.a1, space.a2, space.discriminant))
    return {"a1": a1, "a2": a2, "discriminant": disc, "places": places}


def _coherent(args) -> dict:
    quadratic = _engine("quadratic")
    try:
        doc = json.loads(args.collection)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise UsageError(f"collection argument is not valid JSON: {exc}") from exc
    try:
        disc, epsilons = doc["discriminant"], doc.get("epsilons", {})
    except (KeyError, TypeError) as exc:
        raise UsageError(f"bad collection document: {exc}") from exc
    if not isinstance(epsilons, dict):
        raise UsageError("bad collection document: epsilons must be a JSON object")
    disc = read_rational(disc, UsageError)
    eps = {quadratic.Place.parse(key): _epsilon(val) for key, val in epsilons.items()}
    return quadratic.check_coherence(quadratic.Collection.of(disc, eps)).to_json()


def _epsilon(value) -> int:
    """A Hasse sign as a collection states it: an int that is not a bool, or
    a string that reads as one.  A JSON float such as -1.5 is no sign."""
    if is_int(value) or isinstance(value, str):
        try:
            return int(value)
        except ValueError:  # not an integer, or past the digit limit
            pass
    raise UsageError(f"bad collection document: epsilon {value!r} is not an integer")


def _reducible(args) -> dict:
    quadratic = _engine("quadratic")
    order = int(args.mu_order) if args.mu_order in ("1", "2") else "other"
    mu = quadratic.CharacterDescriptor(order=order, unramified=not args.ramified, real_sign=args.real_sign)
    try:
        residue = "real" if args.q == "real" else int(args.q)
    except ValueError as exc:
        raise UsageError(f"bad integer argument {args.q!r}") from exc
    s_re, s_im = read_rational(args.s_re, UsageError), read_rational(args.s_im, UsageError)
    return quadratic.reducibility(residue, mu, s_re, s_im).to_json()


def _verify(args):
    results = _engine("verify").run_all()  # the one command that needs the suite loads it
    failed = [r.name for r in results if not r.passed]
    payload = {"properties": [r.to_json() for r in results], "all_pass": not failed}
    if not failed:
        return payload
    message = f"failing properties: {', '.join(failed)}"
    return _failure("verify-failed", message, [message], payload)


# -- the command table -------------------------------------------------------------------


class _Option:
    """An option.  A "value" option takes one value, read by type and checked
    against choices, an "append" one collects every value, a "switch" takes
    none; "help" and "version" print their text.  "-h/--help" is two names."""

    def __init__(self, name, type=str, default=None, required=False, choices=None, kind="value",
                 dest=None, help=""):
        self.name, self.type, self.required, self.choices = name, type, required, choices
        self.kind, self.dest, self.help = kind, dest or name.lstrip("-").replace("-", "_"), help
        self.default = {"switch": False, "append": []}.get(kind, default)
        self.takes_value = kind in ("value", "append")

    def row(self) -> tuple[str, str]:
        """The option's line of --help: how it is written, and its help."""
        if not self.takes_value:
            return self.name.replace("/", ", "), self.help
        metavar = "{%s}" % ",".join(map(str, self.choices)) if self.choices else self.dest.upper()
        default = f"(default: {self.default})" if self.kind == "value" and self.default is not None else ""
        return f"{self.name} {metavar}", f"{self.help} {'(required)' if self.required else default}".strip()

    def read(self, text: str):
        try:
            value = self.type(text)
        except ValueError as exc:
            raise UsageError(f"argument {self.name}: invalid {self.type.__name__} value: {text!r}") from exc
        if self.choices is not None and value not in self.choices:
            choices = ", ".join(map(repr, self.choices))
            raise UsageError(f"argument {self.name}: invalid choice: {value!r} (choose from {choices})")
        return value


_HELP = _Option("-h/--help", kind="help", help="show this help and exit")
_OUT = (_Option("--out", help="output file (default stdout)"), _Option("--json-indent", int))


class _Command:
    """A command: its help line, handler, options and positional arguments
    (name, help), or the subcommands it stands for.  Each takes -h/--help,
    and each that has a handler --out and --json-indent after its options."""

    def __init__(self, name, help, handler=None, *options, positionals=(), commands=()):
        self.name, self.help, self.handler, self.positionals = name, help, handler, positionals
        self.listed = (_HELP, *options, *(_OUT if handler else ()))
        self.options = {spelling: o for o in self.listed for spelling in o.name.split("/")}
        self.commands = {c.name: c for c in commands}

    def usage(self, prog: str) -> str:
        if self.commands:
            return f"usage: {prog} {{{','.join(self.commands)}}} [options]; see {prog} <cmd> --help"
        return " ".join(["usage:", prog, *(name for name, _ in self.positionals), "[options]"])

    def help_text(self, prog: str) -> str:
        """The usage and help lines, then a line per subcommand, positional and option."""
        groups = [[(c.name, c.help) for c in self.commands.values()], self.positionals]
        groups.append([o.row() for o in self.listed])
        width = max(len(left) for group in groups for left, _ in group)
        blocks = ["\n".join(f"  {left:<{width}}  {text}".rstrip() for left, text in rows) for rows in groups]
        return "\n\n".join([self.usage(prog), self.help, *filter(None, blocks)])


_K = _Option("--k", int, required=True)
_TRUNC = _Option("--trunc", int, required=True, help="q-truncation N")
_IN = _Option("--in", dest="infile", default="-", help="form file ('-' = stdin)")
_ANALYTIC = _Option("--analytic", kind="switch",
                    help="return the analytically normalized image (pi-scalar times form)")

_ROOT = _Command(
    "nhmf", "exact nearly holomorphic modular forms: each command writes one JSON document", None,
    _Option("--version", kind="version", help="show the version and exit"),
    commands=(
        _Command("eis", "holomorphic Eisenstein series of even weight >= 4",
                 lambda args: _engine("generators").eisenstein(args.k, args.trunc).to_doc(), _K, _TRUNC),
        _Command("e2", "the weight-two nearly holomorphic Eisenstein series",
                 lambda args: _engine("generators").eisenstein2(args.trunc).to_doc(), _TRUNC),
        _Command("theta", "theta series of a positive definite binary form",
                 lambda args: _engine("generators").theta_series(
                     _engine("generators").BinaryForm(args.a, args.b, args.c), args.trunc).to_doc(),
                 *(_Option(name, int, required=True) for name in ("--a", "--b", "--c")), _TRUNC),
        _Command("raise", "weight-raising operator", lambda args: _operator(args, "raise"), _IN, _ANALYTIC),
        _Command("lower", "weight-lowering operator", lambda args: _operator(args, "lower"), _IN, _ANALYTIC),
        _Command("casimir", "Casimir operator",
                 lambda args: _engine("operators").casimir(_read_form(args.infile)).to_doc(), _IN),
        _Command("decompose", "structure decomposition over the level-1 basis",
                 lambda args: _engine("decompose").decompose(_read_form(args.infile)).to_json(), _IN),
        _Command("identify", "indecomposable module class generated by a form",
                 lambda args: _engine("category_o").identify_module(_read_form(args.infile)).to_json(),
                 _IN),
        _Command("constant-term", "Eisenstein constant-term report at s = k - 1", _constant_term, _K,
                 _Option("--d", int, default=1),
                 _Option("--character", choices=("trivial", "sgn", "quadratic", "other"), default="trivial"),
                 _Option("--local-order", int, kind="append",
                         help="vanishing order of an extra finite local factor (repeatable)")),
        _Command("local", "local quadratic-space invariants", commands=(
            _Command("hilbert", "Hilbert symbol (a, b)_v", _hilbert,
                     positionals=(("a", ""), ("b", ""), ("v", "prime or 'real'"))),
            _Command("invariants", "local invariants of <a1, a2>", _invariants,
                     positionals=(("a1", ""), ("a2", ""))),
            _Command("coherent", "coherence check of a collection", _coherent, positionals=(
                ("collection", 'JSON {"discriminant": "num/den", "epsilons": {"2": -1, "real": 1, ...}}'),)),
            _Command("reducible", "degenerate principal series reducibility", _reducible,
                     _Option("--q", required=True, help="residue cardinality or 'real'"),
                     _Option("--mu-order", choices=("1", "2", "other"), default="1"),
                     _Option("--ramified", kind="switch"),
                     _Option("--real-sign", int, choices=(0, 1), default=0),
                     _Option("--s-re", default="0"),
                     _Option("--s-im", default="0", help="coefficient of pi*i/log q")),
        )),
        _Command("catalog", "symbolic spectrum decomposition for (d, k)",
                 lambda args: _engine("category_o").catalog(args.d, args.k).to_json(),
                 _Option("--d", int, required=True), _K),
        _Command("verify", "run the invariant suite", _verify),
    ),
)
COMMANDS = tuple(_ROOT.commands)


# -- the parser: argparse's rules over the table --------------------------------------


class _Help(Exception):
    """-h, --help or --version: the text to print in place of a document."""


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The values of a command line and its command's handler; UsageError
    for a line refused, _Help for one that asks for help or the version."""
    values, extras = {}, []
    node = _read_level(_ROOT, "nhmf", argv, values, extras)
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    if node is _ROOT:
        raise UsageError("missing command; expected one of: " + ", ".join(COMMANDS))
    if node.commands:
        raise UsageError(f"{node.name} needs a subcommand: " + " | ".join(node.commands))
    return SimpleNamespace(handler=node.handler, **values)


def _read_level(node: _Command, prog: str, tokens: list[str], values: dict, extras: list) -> _Command:
    """Read the tokens after a command name as argparse did (`--opt value` or
    `--opt=value`, a negative number as a value, `--` to end the options, the
    last repeated value winning, options and positionals in any order), then a
    subcommand's, into values and extras; returns the last command read."""
    values.update((o.dest, o.default) for o in node.listed if o.takes_value or o.kind == "switch")
    # Each token's reading: (option or None, name, value after "=" or None),
    # "A" for a value, or "--"; after the first "--" every token is a value.
    readings = []
    for i, token in enumerate(tokens):
        if token == "--":
            readings += ["--"] + ["A"] * (len(tokens) - i - 1)
            break
        readings.append(_reading(node.options, token))
    positionals, i = [name for name, _ in node.positionals], 0
    while i < len(tokens):
        if readings[i] in ("A", "--"):
            # A run of values, up to the next option: a subcommand's name and
            # all that follows it, or the next positionals and the "--" among them.
            end = next((j for j in range(i, len(tokens)) if readings[j] not in ("A", "--")), len(tokens))
            run = [j for j in range(i, end) if readings[j] == "A"]
            if node.commands and run:
                child = node.commands.get(tokens[i])
                if child is None:
                    dest = "_".join([*prog.split()[1:], "command"])  # command, or local_command
                    names = ", ".join(map(repr, node.commands))
                    raise UsageError(f"argument {dest}: invalid choice: {tokens[i]!r} (choose from {names})")
                return _read_level(child, f"{prog} {child.name}", tokens[i + 1:], values, extras)
            for j in run[:len(positionals)]:
                values[positionals.pop(0)] = tokens[j]
                i = j + 1 + (j + 1 < end and readings[j + 1] == "--")
            extras += tokens[i:end]
            i = end
            continue
        option, name, explicit = readings[i]
        i += 1
        if option is None:
            extras.append(name)
        elif option.takes_value:
            if explicit is None:
                if i == len(tokens) or readings[i] != "A":
                    raise UsageError(f"argument {option.name}: expected one argument")
                explicit, i = tokens[i], i + 1
            value = option.read(explicit)
            values[option.dest] = [*values[option.dest], value] if option.kind == "append" else value
        elif explicit is not None and (name != "-h" or explicit.strip("h") or not explicit):
            # An option that takes no value refuses one; -hh is -h twice.
            ignored = explicit.lstrip("h") if name == "-h" else explicit
            raise UsageError(f"argument {option.name}: ignored explicit argument {ignored!r}")
        elif option.kind == "switch":
            values[option.dest] = True
        else:
            raise _Help(node.help_text(prog) if option.kind == "help" else f"nhmf {__version__}")
    missing = [*positionals, *(o.name for o in node.listed if o.required and values[o.dest] is None)]
    if missing:
        raise UsageError("the following arguments are required: " + ", ".join(missing))
    return node


def _reading(options: dict, token: str):
    """argparse's reading of a token before any "--": "A" for a value, else (the
    option it names or None, its name, the value after "=" or after -h)."""
    name, eq, explicit = token.partition("=")
    if name in options:
        return options[name], name, explicit if eq else None
    if token[:1] != "-" or token == "-":
        return "A"
    # A long option is named by a unique prefix; -h may carry a value, as -hh.
    matches = ([(o, n, explicit if eq else None) for n, o in options.items() if n.startswith(name)]
               if token[1] == "-" else [(o, n, token[2:]) for n, o in options.items() if n == token[:2]])
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {token} could match {', '.join(n for _, n, _ in matches)}")
    if matches:
        return matches[0]
    # A token such as -3, -3/4 or -.5 is a value wherever a word is.
    return "A" if " " in token or re.match(r"^-\d+(/\d+)?$|^-\d*\.\d+$", token) else (None, token, None)


def run(argv: list[str]) -> CommandResult:
    """Dispatch one command and render its document; never raises, returns
    errors as results.

    An exception that is not an NhmfError is a defect of the engine and is
    returned with the code ``internal``.  The one exception to that is the
    interpreter's refusal to convert an int of more than
    sys.get_int_max_str_digits() digits to or from text: a number that large,
    in the input or the answer, is ``out-of-domain``.
    """
    try:
        try:
            args = parse_args(argv)
            indent = args.json_indent
            if indent is not None and indent > MAX_JSON_INDENT:
                raise UsageError(f"--json-indent must be at most {MAX_JSON_INDENT}, got {indent}")
            payload = args.handler(args)
            result = payload if isinstance(payload, CommandResult) else CommandResult(payload)
            result.out_path = args.out
            result.json_indent = indent
        except _Help as shown:
            return CommandResult({}, text=str(shown))
        except NhmfError as exc:
            # Numbers and lists (an ambiguous module's class names) stay JSON values.
            extra = {key: value if isinstance(value, (int, float, bool, list)) else str(value)
                     for key, value in exc.data.items()}
            usage = [_ROOT.usage("nhmf")] if isinstance(exc, UsageError) else []
            result = _failure(exc.code, str(exc), usage, extra)
        result.text = _serialize(result.document, result.json_indent)
    except Exception as exc:
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            message = (f"a number has more than {sys.get_int_max_str_digits()} digits, "
                       "the most the interpreter converts between int and text")
            result = _failure(DomainError.code, message)
        else:
            import traceback

            result = _failure("internal", f"{type(exc).__name__}: {exc}", [traceback.format_exc()])
        result.text = _serialize(result.document, None)
    return result


def _serialize(doc: dict, indent: int | None) -> str:
    return json.dumps(doc, indent=indent, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.ok and result.out_path:
        try:
            with open(result.out_path, "w", encoding="utf-8") as handle:
                handle.write(result.text + "\n")
            return 0
        except OSError as exc:
            message = f"cannot write --out {result.out_path}: {exc.strerror or exc}"
            indent = result.json_indent
            result = _failure(UsageError.code, message)
            result.text = _serialize(result.document, indent)
    if not result.ok:
        print(result.text, file=sys.stderr)
        return 1
    try:
        print(result.text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (`nhmf verify | head`): point stdout at
        # devnull so that the flush at interpreter exit cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def main_process(argv: list[str] | None = None) -> int:
    """The entry of an nhmf process, which exits with the status returned:
    main, then gc.freeze(), whose effect outlives the command."""
    status = main(argv)
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(main_process())
