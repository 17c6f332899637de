"""Batch command-line front end with stable JSON I/O.

Every subcommand reads/writes the JSON form file format or a JSON verdict
document; output is deterministic and bit-exact across runs.  Exit code 0
iff the command succeeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import __version__
from .arith import frac_to_str
from .category_o import catalog, identify_module
from .decompose import decompose
from .errors import FormFileError, NhmfError, UsageError
from .generators import BinaryForm, eisenstein, eisenstein2, theta_series
from .laurent import LaurentScalar, constant_term_report
from .operators import casimir, lower_weight, raise_weight, lower_analytic, raise_analytic
from .quadratic import (
    CharacterDescriptor,
    Collection,
    Place,
    QuadSpace2D,
    check_coherence,
    hilbert_symbol,
    local_invariants,
    reducibility,
    relevant_places,
)
from .series import NearlyHolomorphicForm
from .verify import run_all

COMMANDS = (
    "eis",
    "e2",
    "theta",
    "raise",
    "lower",
    "casimir",
    "decompose",
    "identify",
    "constant-term",
    "local",
    "catalog",
    "verify",
)


@dataclass
class CommandResult:
    status: str  # "ok" | "error"
    payload: dict
    diagnostics: list[str] = field(default_factory=list)
    code: Optional[str] = None
    out_path: Optional[str] = None
    json_indent: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nhmf", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nhmf {__version__}")
    sub = parser.add_subparsers(dest="command")

    def common(p, with_trunc=False, with_in=False):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--json-indent", type=int, default=None)
        if with_trunc:
            p.add_argument("--trunc", type=int, required=True, help="q-truncation N")
        if with_in:
            p.add_argument("--in", dest="infile", default="-", help="form file ('-' = stdin)")

    p = sub.add_parser("eis", help="holomorphic Eisenstein series of even weight >= 4")
    p.add_argument("--k", type=int, required=True)
    common(p, with_trunc=True)

    p = sub.add_parser("e2", help="the weight-two nearly holomorphic Eisenstein series")
    common(p, with_trunc=True)

    p = sub.add_parser("theta", help="theta series of a positive definite binary form")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    common(p, with_trunc=True)

    for name, helptext in (
        ("raise", "weight-raising operator"),
        ("lower", "weight-lowering operator"),
        ("casimir", "Casimir operator"),
    ):
        p = sub.add_parser(name, help=helptext)
        common(p, with_in=True)
        if name != "casimir":
            p.add_argument(
                "--analytic",
                action="store_true",
                help="return the analytically normalized image (pi-scalar times form)",
            )

    p = sub.add_parser("decompose", help="structure decomposition over the level-1 basis")
    common(p, with_in=True)

    p = sub.add_parser("identify", help="indecomposable module class generated by a form")
    p.add_argument("--max-steps", type=int, default=24)
    common(p, with_in=True)

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
    common(p)

    p = sub.add_parser("local", help="local quadratic-space invariants")
    lsub = p.add_subparsers(dest="local_command")

    lp = lsub.add_parser("hilbert", help="Hilbert symbol (a, b)_v")
    lp.add_argument("a")
    lp.add_argument("b")
    lp.add_argument("v", help="prime or 'real'")
    common(lp)

    lp = lsub.add_parser("invariants", help="local invariants of <a1, a2>")
    lp.add_argument("a1")
    lp.add_argument("a2")
    common(lp)

    lp = lsub.add_parser("coherent", help="coherence check of a collection")
    lp.add_argument(
        "collection",
        help='JSON {"discriminant": "num/den", "epsilons": {"2": -1, "real": 1, ...}}',
    )
    common(lp)

    lp = lsub.add_parser("reducible", help="degenerate principal series reducibility")
    lp.add_argument("--q", required=True, help="residue cardinality or 'real'")
    lp.add_argument("--mu-order", choices=["1", "2", "other"], default="1")
    lp.add_argument("--ramified", action="store_true")
    lp.add_argument("--real-sign", type=int, choices=[0, 1], default=0)
    lp.add_argument("--s-re", default="0")
    lp.add_argument("--s-im", default="0", help="coefficient of pi*i/log q")
    common(lp)

    p = sub.add_parser("catalog", help="symbolic spectrum decomposition for (d, k)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("verify", help="run the invariant suite")
    common(p)

    return parser


def _read_form(path: str) -> NearlyHolomorphicForm:
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
    except json.JSONDecodeError as exc:
        raise FormFileError(f"form file {path!r} is not valid JSON: {exc}") from exc
    return NearlyHolomorphicForm.from_doc(doc)


def _frac_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational argument {text!r}") from exc


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise UsageError(f"bad integer argument {text!r}") from exc


def _dispatch(args) -> dict:
    cmd = args.command
    if cmd == "eis":
        return eisenstein(args.k, args.trunc).to_doc()
    if cmd == "e2":
        return eisenstein2(args.trunc).to_doc()
    if cmd == "theta":
        return theta_series(BinaryForm(args.a, args.b, args.c), args.trunc).to_doc()
    if cmd in ("raise", "lower", "casimir"):
        f = _read_form(args.infile)
        if cmd == "casimir":
            return casimir(f).to_doc()
        if getattr(args, "analytic", False):
            scaled = raise_analytic(f) if cmd == "raise" else lower_analytic(f)
            return {"scalar": scaled.scalar.to_json(), "form": scaled.form.to_doc()}
        op = raise_weight if cmd == "raise" else lower_weight
        return op(f).to_doc()
    if cmd == "decompose":
        return decompose(_read_form(args.infile)).to_json()
    if cmd == "identify":
        return identify_module(_read_form(args.infile), args.max_steps).to_json()
    if cmd == "constant-term":
        family = "trivial" if args.character == "trivial" else "nontrivial"
        s0 = args.k - 1
        local = [
            LaurentScalar.order_only(s0, order) for order in args.local_order
        ]
        return constant_term_report(args.k, args.d, family, local).to_json()
    if cmd == "local":
        return _dispatch_local(args)
    if cmd == "catalog":
        return catalog(args.d, args.k).to_json()
    if cmd == "verify":
        results = run_all()
        return {
            "properties": [r.to_json() for r in results],
            "all_pass": all(r.passed for r in results),
        }
    raise UsageError(
        f"unknown command {cmd!r}; expected one of: " + ", ".join(COMMANDS)
    )


def _dispatch_local(args) -> dict:
    sub = args.local_command
    if sub == "hilbert":
        a, b = _frac_arg(args.a), _frac_arg(args.b)
        place = Place.parse(args.v)
        return {
            "a": frac_to_str(a),
            "b": frac_to_str(b),
            "place": place.render(),
            "symbol": hilbert_symbol(a, b, place),
        }
    if sub == "invariants":
        space = QuadSpace2D(_frac_arg(args.a1), _frac_arg(args.a2))
        places = relevant_places(space.a1, space.a2, space.discriminant)
        return {
            "a1": frac_to_str(space.a1),
            "a2": frac_to_str(space.a2),
            "discriminant": frac_to_str(space.discriminant),
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
    if sub == "coherent":
        try:
            doc = json.loads(args.collection)
        except json.JSONDecodeError as exc:
            raise UsageError(f"collection argument is not valid JSON: {exc}") from exc
        try:
            disc = Fraction(doc["discriminant"])
            eps = {
                Place.parse(key): int(val) for key, val in doc.get("epsilons", {}).items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad collection document: {exc}") from exc
        result = check_coherence(Collection.of(disc, eps))
        return result.to_json()
    if sub == "reducible":
        order = int(args.mu_order) if args.mu_order in ("1", "2") else "other"
        mu = CharacterDescriptor(
            order=order,
            unramified=not args.ramified,
            real_sign=args.real_sign,
        )
        residue = "real" if args.q == "real" else _int_arg(args.q)
        verdict = reducibility(residue, mu, _frac_arg(args.s_re), _frac_arg(args.s_im))
        return verdict.to_json()
    raise UsageError(
        "local needs a subcommand: hilbert | invariants | coherent | reducible"
    )


def run(argv: list[str]) -> CommandResult:
    """Dispatch one command; never raises, returns errors as results.

    An exception that is not an NhmfError is a defect of the engine and is
    returned with the code ``internal``.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("missing command; expected one of: " + ", ".join(COMMANDS))
        payload = _dispatch(args)
        result = CommandResult("ok", payload)
        if args.command == "verify" and not payload["all_pass"]:
            failed = [p["name"] for p in payload["properties"] if not p["pass"]]
            result = CommandResult(
                "error", payload, [f"failing properties: {', '.join(failed)}"],
                code="verify-failed",
            )
        result.out_path = getattr(args, "out", None)
        result.json_indent = getattr(args, "json_indent", None)
        return result
    except UsageError as exc:
        return CommandResult(
            "error",
            {"error": exc.code, "message": str(exc)},
            [_usage_text()],
            code=exc.code,
        )
    except NhmfError as exc:
        extra = {
            key: (str(value) if not isinstance(value, (int, float, bool)) else value)
            for key, value in exc.data.items()
        }
        return CommandResult(
            "error",
            {"error": exc.code, "message": str(exc), **extra},
            code=exc.code,
        )
    except Exception as exc:
        return CommandResult(
            "error",
            {"error": "internal", "message": f"{type(exc).__name__}: {exc}"},
            [traceback.format_exc()],
            code="internal",
        )


def _usage_text() -> str:
    return "usage: nhmf {" + ",".join(COMMANDS) + "} [options]; see nhmf <cmd> --help"


def _serialize(doc: dict, indent: Optional[int]) -> str:
    return json.dumps(doc, indent=indent, sort_keys=True)


def main(argv: Optional[list[str]] = None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    if result.ok:
        text = _serialize(result.payload, result.json_indent)
        if not result.out_path:
            print(text)
            return 0
        try:
            with open(result.out_path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            return 0
        except OSError as exc:
            result = CommandResult(
                "error",
                {"error": UsageError.code, "message": f"cannot write --out {result.out_path}: {exc.strerror or exc}"},
                code=UsageError.code,
                json_indent=result.json_indent,
            )
    doc = {"status": "error", **result.payload, "diagnostics": result.diagnostics}
    print(_serialize(doc, result.json_indent), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
