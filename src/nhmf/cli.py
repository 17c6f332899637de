"""Batch command-line front end with stable JSON I/O.

Every subcommand reads/writes the JSON form file format or a JSON verdict
document; output is deterministic and bit-exact across runs.  Exit code 0
iff the command succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional

from . import __version__
from .arith import Record, is_int, read_rational
from .errors import DomainError, FormFileError, NhmfError, UsageError


class CommandResult(Record):
    _fields = ("payload", "diagnostics", "code", "out_path", "json_indent", "text")

    def __init__(
        self,
        payload: dict,
        diagnostics: Optional[list[str]] = None,
        code: Optional[str] = None,
        out_path: Optional[str] = None,
        json_indent: Optional[int] = None,
        text: str = "",
    ):
        self.payload = payload
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.code = code  # the error code; None iff the command succeeded
        self.out_path = out_path
        self.json_indent = json_indent
        self.text = text  # the rendered document

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


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A negative fraction such as -3/4 is an argument wherever -3 is.
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise UsageError(message)


def _read_form(path: str):
    from .series import NearlyHolomorphicForm

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
    return NearlyHolomorphicForm.from_doc(doc)


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"bad integer argument {text!r}") from exc


# -- command handlers: each takes the parsed arguments and returns the JSON
# payload or a finished CommandResult.  This module imports no part of the
# engine but arith and errors: each handler imports what it calls, in its
# body, so that a cold process loads only the modules its command needs, and
# the names are looked up when the command runs.


def _refuse(message: str):
    raise UsageError(message)


def _eis(args) -> dict:
    from .generators import eisenstein

    return eisenstein(args.k, args.trunc).to_doc()


def _e2(args) -> dict:
    from .generators import eisenstein2

    return eisenstein2(args.trunc).to_doc()


def _theta(args) -> dict:
    from .generators import BinaryForm, theta_series

    return theta_series(BinaryForm(args.a, args.b, args.c), args.trunc).to_doc()


def _operator(args, plain, analytic) -> dict:
    f = _read_form(args.infile)
    if args.analytic:
        scaled = analytic(f)
        return {"scalar": scaled.scalar.to_json(), "form": scaled.form.to_doc()}
    return plain(f).to_doc()


def _raise(args) -> dict:
    from .operators import raise_analytic, raise_weight

    return _operator(args, raise_weight, raise_analytic)


def _lower(args) -> dict:
    from .operators import lower_analytic, lower_weight

    return _operator(args, lower_weight, lower_analytic)


def _casimir(args) -> dict:
    from .operators import casimir

    return casimir(_read_form(args.infile)).to_doc()


def _decompose(args) -> dict:
    from .decompose import decompose

    return decompose(_read_form(args.infile)).to_json()


def _constant_term(args) -> dict:
    from .laurent import LaurentScalar, constant_term_report

    family = "trivial" if args.character == "trivial" else "nontrivial"
    local = [LaurentScalar.order_only(args.k - 1, order) for order in args.local_order]
    return constant_term_report(args.k, args.d, family, local).to_json()


def _hilbert(args) -> dict:
    from .quadratic import Place, hilbert_symbol

    a, b = read_rational(args.a, UsageError), read_rational(args.b, UsageError)
    place = Place.parse(args.v)
    return {
        "a": str(a),
        "b": str(b),
        "place": place.render(),
        "symbol": hilbert_symbol(a, b, place),
    }


def _invariants(args) -> dict:
    from .quadratic import QuadSpace2D, local_invariants, relevant_places

    space = QuadSpace2D(read_rational(args.a1, UsageError), read_rational(args.a2, UsageError))
    # -a1*a2 has no prime that a1 or a2 has not.
    places = relevant_places(space.a1, space.a2)
    return {
        "a1": str(space.a1),
        "a2": str(space.a2),
        "discriminant": str(space.discriminant),
        "places": [
            {
                "place": v.render(),
                "chi_nontrivial": inv.chi_nontrivial,
                "epsilon": inv.epsilon,
            }
            for v in places
            for inv in [local_invariants(space, v)]
        ],
    }


def _coherent(args) -> dict:
    from .quadratic import Collection, Place, check_coherence

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
    eps = {Place.parse(key): _epsilon(val) for key, val in epsilons.items()}
    return check_coherence(Collection.of(disc, eps)).to_json()


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
    from .quadratic import CharacterDescriptor, reducibility

    order = int(args.mu_order) if args.mu_order in ("1", "2") else "other"
    mu = CharacterDescriptor(order=order, unramified=not args.ramified, real_sign=args.real_sign)
    residue = "real" if args.q == "real" else _int_arg(args.q)
    s_re, s_im = read_rational(args.s_re, UsageError), read_rational(args.s_im, UsageError)
    verdict = reducibility(residue, mu, s_re, s_im)
    return verdict.to_json()


def _identify(args) -> dict:
    from .category_o import identify_module

    return identify_module(_read_form(args.infile)).to_json()


def _catalog(args) -> dict:
    from .category_o import catalog

    return catalog(args.d, args.k).to_json()


def _verify(args):
    from . import verify  # the one command that needs the suite loads it

    results = verify.run_all()
    failed = [r.name for r in results if not r.passed]
    payload = {"properties": [r.to_json() for r in results], "all_pass": not failed}
    if not failed:
        return payload
    message = f"failing properties: {', '.join(failed)}"
    return _failure("verify-failed", message, [message], payload)


def _build_parser() -> tuple[_Parser, tuple[str, ...]]:
    """The nhmf parser, each subcommand carrying its handler, and the
    subcommand names in order."""
    parser = _Parser(prog="nhmf", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nhmf {__version__}")
    sub = parser.add_subparsers(dest="command")
    # A parser's default handler is replaced by that of the subcommand given.
    parser.set_defaults(
        handler=lambda args: _refuse("missing command; expected one of: " + ", ".join(COMMANDS))
    )

    def common(p, handler, with_trunc=False, with_in=False):
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--json-indent", type=int, default=None)
        if with_trunc:
            p.add_argument("--trunc", type=int, required=True, help="q-truncation N")
        if with_in:
            p.add_argument("--in", dest="infile", default="-", help="form file ('-' = stdin)")

    p = sub.add_parser("eis", help="holomorphic Eisenstein series of even weight >= 4")
    p.add_argument("--k", type=int, required=True)
    common(p, _eis, with_trunc=True)

    p = sub.add_parser("e2", help="the weight-two nearly holomorphic Eisenstein series")
    common(p, _e2, with_trunc=True)

    p = sub.add_parser("theta", help="theta series of a positive definite binary form")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    common(p, _theta, with_trunc=True)

    for name, helptext, handler in (
        ("raise", "weight-raising operator", _raise),
        ("lower", "weight-lowering operator", _lower),
    ):
        p = sub.add_parser(name, help=helptext)
        common(p, handler, with_in=True)
        p.add_argument(
            "--analytic",
            action="store_true",
            help="return the analytically normalized image (pi-scalar times form)",
        )

    p = sub.add_parser("casimir", help="Casimir operator")
    common(p, _casimir, with_in=True)

    p = sub.add_parser("decompose", help="structure decomposition over the level-1 basis")
    common(p, _decompose, with_in=True)

    p = sub.add_parser("identify", help="indecomposable module class generated by a form")
    p.add_argument(
        "--max-steps",
        type=int,
        help="deprecated and ignored: identify applies one Casimir at any depth",
    )
    common(p, _identify, with_in=True)

    p = sub.add_parser("constant-term", help="Eisenstein constant-term report at s = k - 1")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument(
        "--character",
        choices=["trivial", "sgn", "quadratic", "other"],
        default="trivial",
    )
    p.add_argument(
        "--local-order",
        type=int,
        action="append",
        default=[],
        help="vanishing order of an extra finite local factor (repeatable)",
    )
    common(p, _constant_term)

    p = sub.add_parser("local", help="local quadratic-space invariants")
    lsub = p.add_subparsers(dest="local_command")

    lp = lsub.add_parser("hilbert", help="Hilbert symbol (a, b)_v")
    lp.add_argument("a")
    lp.add_argument("b")
    lp.add_argument("v", help="prime or 'real'")
    common(lp, _hilbert)

    lp = lsub.add_parser("invariants", help="local invariants of <a1, a2>")
    lp.add_argument("a1")
    lp.add_argument("a2")
    common(lp, _invariants)

    lp = lsub.add_parser("coherent", help="coherence check of a collection")
    lp.add_argument(
        "collection",
        help='JSON {"discriminant": "num/den", "epsilons": {"2": -1, "real": 1, ...}}',
    )
    common(lp, _coherent)

    lp = lsub.add_parser("reducible", help="degenerate principal series reducibility")
    lp.add_argument("--q", required=True, help="residue cardinality or 'real'")
    lp.add_argument("--mu-order", choices=["1", "2", "other"], default="1")
    lp.add_argument("--ramified", action="store_true")
    lp.add_argument("--real-sign", type=int, choices=[0, 1], default=0)
    lp.add_argument("--s-re", default="0")
    lp.add_argument("--s-im", default="0", help="coefficient of pi*i/log q")
    common(lp, _reducible)

    local_commands = " | ".join(lsub.choices)
    p.set_defaults(handler=lambda args: _refuse(f"local needs a subcommand: {local_commands}"))

    p = sub.add_parser("catalog", help="symbolic spectrum decomposition for (d, k)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p, _catalog)

    p = sub.add_parser("verify", help="run the invariant suite")
    common(p, _verify)

    return parser, tuple(sub.choices)


_PARSER, COMMANDS = _build_parser()


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
            args = _PARSER.parse_args(argv)
            indent = getattr(args, "json_indent", None)
            if indent is not None and indent > MAX_JSON_INDENT:
                raise UsageError(f"--json-indent must be at most {MAX_JSON_INDENT}, got {indent}")
            payload = args.handler(args)
            result = payload if isinstance(payload, CommandResult) else CommandResult(payload)
            result.out_path = getattr(args, "out", None)
            result.json_indent = indent
        except NhmfError as exc:
            # Numbers and lists (an ambiguous module's class names) stay JSON values.
            extra = {
                key: (value if isinstance(value, (int, float, bool, list)) else str(value))
                for key, value in exc.data.items()
            }
            usage = [_usage_text()] if isinstance(exc, UsageError) else []
            result = _failure(exc.code, str(exc), usage, extra)
        result.text = _serialize(result.document, result.json_indent)
    except Exception as exc:
        if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
            message = (
                f"a number has more than {sys.get_int_max_str_digits()} digits, "
                "the most the interpreter converts between int and text"
            )
            result = _failure(DomainError.code, message)
        else:
            import traceback

            result = _failure("internal", f"{type(exc).__name__}: {exc}", [traceback.format_exc()])
        result.text = _serialize(result.document, None)
    return result


def _usage_text() -> str:
    return "usage: nhmf {" + ",".join(COMMANDS) + "} [options]; see nhmf <cmd> --help"


def _serialize(doc: dict, indent: Optional[int]) -> str:
    return json.dumps(doc, indent=indent, sort_keys=True)


def main(argv: Optional[list[str]] = None) -> int:
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


if __name__ == "__main__":
    sys.exit(main())
