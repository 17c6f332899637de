"""The CLI's command-table parser against the argparse front end it replaced.

conftest.reference_parser keeps that front end.  Over a fixed corpus and the
random command lines of test_cli_fuzz, the table's parser must read the same
values and the same handler, or refuse where argparse refused (as ``usage``),
or print help or the version where argparse did.  The table keeps the rules
of argparse as Python 3.10 and 3.11 have them; later versions changed how a
`--` before a subcommand and a value after -h are read, so the comparisons
run on those two.
"""

import contextlib
import io
import shlex
import sys

import pytest
from conftest import reference_parser
from hypothesis import given, settings
from test_cli_fuzz import argvs

from nhmf import cli
from nhmf.errors import UsageError

argparse_rules = pytest.mark.skipif(
    sys.version_info[:2] not in ((3, 10), (3, 11)),
    reason="the table keeps the argparse rules of Python 3.10 and 3.11",
)

REFERENCE = reference_parser()
# Each handler of the table by the command it runs, as the reference names it.
HANDLERS = {
    child.handler: f"{name} {sub}" if sub else name
    for name, command in cli._ROOT.commands.items()
    for sub, child in ([(None, command)] if command.handler else command.commands.items())
}


def table_reading(argv):
    try:
        args = cli.parse_args(argv)
    except UsageError:
        return "usage"
    except cli._Help as shown:
        return "version" if str(shown).startswith("nhmf ") else "help"
    return {**vars(args), "handler": HANDLERS[args.handler]}


def argparse_reading(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = REFERENCE.parse_args(argv)
    except UsageError:
        return "usage"
    except SystemExit as exit:
        assert exit.code == 0
        return "help" if out.getvalue().startswith("usage:") else "version"
    values = {key: value for key, value in vars(args).items() if key not in ("command", "local_command")}
    return "usage" if values["handler"] is None else values


CORPUS = [
    # options, prefixes and "="
    "eis --k 4 --trunc 3", "eis --trunc 3 --k 4", "eis --k=4 --trunc=3", "eis --k 4 --tr 3",
    "eis --k 4 --t=3", "eis --k 4 --trunc 3 --j 2 --o out.json", "eis --k= --trunc 3",
    "raise --an --in f.json", "casimir --i f.json", "identify --m 3 --in x",
    "constant-term --k 4 --c quadratic", "local reducible --q 3 --mu 2 --ra", "local reducible --q 3 --re 1",
    "local reducible --q 3 --s 1", "local reducible --q 3 --r 1", "eis --k 4 --trunc 3 --=3", "--=x",
    # repeated options: the last value wins, an append option keeps all
    "eis --k 4 --trunc 3 --k 6", "raise --analytic --analytic", "raise --in a --in b",
    "constant-term --k 4 --local-order 1 --local-order 2", "constant-term --k 4 --local-order=1 --l -2",
    # negative numbers and fractions as values and positionals
    "eis --k 4 --trunc -3", "eis --k -4 --trunc 3", "e2 --trunc 5 --json-indent -1", "e2 --trunc=-5",
    "theta --a=-1 --b -0 --c 1 --trunc 3", "identify --max-steps -1", "constant-term --k 4 --d -2",
    "local hilbert -3/4 10/9 2", "local hilbert -1 -.5 real", "local invariants -3/4 -5",
    "local reducible --q 3 --s-re -1/2", "local reducible --q 3 --s-re=-1/2 --s-im -3", "local reducible --q -3",
    "local hilbert -1.5 2 3", "local hilbert -1e3 2 3", "local hilbert '-1 2' 3 5", "local hilbert - 2 3",
    # "--" ends the options
    "local hilbert -- -3/4 10/9 2", "local hilbert 2 -- 5 5", "local hilbert 2 5 5 --",
    "local hilbert 2 5 5 --out o.json --", "local hilbert -- 2 5 5 --out", "local invariants -- -- 5",
    "local coherent -- --x", "eis --k 4 --trunc 3 --", "eis -- --k 4 --trunc 3", "-- eis --k 4 --trunc 3",
    "local -- hilbert 1 2 3", "--", "local --", "eis --k 4 --trunc --",
    # positionals mixed with options, missing and extra
    "local hilbert 2 --out o.json 5 5", "local hilbert --json-indent 2 2 5 5", "local hilbert 2 5",
    "local hilbert 2 5 5 7", "local invariants 1", "local coherent", "local coherent a b",
    "local coherent '{\"discriminant\": \"-1\"}'", "eis --k 4 --trunc 3 extra", "eis extra --k 4 --trunc 3",
    # missing values, bad ints and bad choices
    "eis --k 4", "eis --k 4 --trunc", "eis --k 4 --trunc 3 --out", "eis --k 4 --trunc 3 --out --json-indent 2",
    "decompose --in", "constant-term --k 4 --local-order", "local reducible --s-re 1", "catalog --k 2",
    "eis --k 4.0 --trunc 3", "eis --k x --trunc 3", "eis --k ' 4' --trunc +3", "eis --k 1_0 --trunc 3",
    "e2 --trunc 5 --json-indent 99999999999999999999", "constant-term --k 4 --character odd",
    "local reducible --q 3 --real-sign 2", "local reducible --q 3 --real-sign x",
    "local reducible --q 3 --mu-order 3", "raise --analytic=yes", "raise --analytic=",
    # unknown options and commands
    "eis --k 4 --trunc 3 --no-such-flag", "eis --k 4 --trunc 3 -x", "eis --k 4 --trunc 3 --version",
    "frobnicate", "frobnicate --k 3", "local frob", "", "local", "-x", "-x eis --k 4 --trunc 3",
    "--out x eis", "eis -x=3 --k 4 --trunc 3",
    # every command once
    "e2 --trunc 5", "theta --a 1 --b 0 --c 1 --trunc 3", "raise --in -", "raise --in=-",
    "lower --in - --out o.json --json-indent 2", "casimir", "decompose", "identify",
    "constant-term --k 4 --character sgn", "local invariants 1 1", "local reducible --q real --ramified",
    "catalog --d 1 --k 2", "verify --json-indent 2",
    # help and version, and which comes first when a line also has an error
    "--help", "-h", "--he", "--version", "--vers", "--version=1", "-hh", "-hx", "-h=h", "-h=", "--help=x",
    "eis -h", "local -h", "local hilbert --help", "local reducible --help", "eis --k x -h", "eis -h --k x",
    "eis --no-such -h", "eis extra -h", "eis --k -h", "frobnicate -h", "-h frobnicate", "-x -h",
    "local reducible -h --s 1", "local reducible --s 1 -h", "eis --=3 -h", "eis -h --=3",
]


@argparse_rules
@pytest.mark.parametrize("line", CORPUS)
def test_the_table_reads_a_command_line_as_argparse_did(line):
    argv = shlex.split(line)
    assert table_reading(argv) == argparse_reading(argv)


@argparse_rules
@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_the_table_reads_random_command_lines_as_argparse_did(argv):
    assert table_reading(argv) == argparse_reading(argv)


def test_a_value_of_two_dashes_after_an_equals_sign_is_read_as_written():
    # argparse dropped the "--" of --out=-- and stored an empty list, which
    # --json-indent, --q and --in then failed on as internal errors.
    assert cli.parse_args(["e2", "--trunc", "3", "--out=--"]).out == "--"
    assert cli.run(["e2", "--trunc", "3", "--json-indent=--"]).code == "usage"
    assert cli.run(["local", "reducible", "--q=--"]).code == "usage"
