"""Fuzzing of the CLI error contract: random argv and random form files.

Whatever the input, `main` either succeeds (exit 0, one JSON document on
stdout, nothing on stderr) or fails with exit 1, nothing on stdout and one
JSON error document on stderr whose code is in ERROR_CODES and is not
``internal`` (the code of an engine defect).  Every truncation, weight and
degree drawn here is small, so each example answers in milliseconds.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nhmf.cli import COMMANDS, main
from nhmf.errors import ERROR_CODES


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The paths that stand in for the file tokens of an argv; the examples
    run in the same directory, so that an --out they name lands there."""
    root = tmp_path_factory.mktemp("fuzz")
    good = root / "e2.json"
    good.write_text(
        json.dumps({"weight": 2, "truncation": 6, "terms": [[0, 0, "-1"], [0, 1, "24"], [1, 0, "12"]]})
    )
    garbage = root / "garbage.json"
    garbage.write_text("{not json")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        yield {"root": root, "<good-form>": str(good), "<garbage>": str(garbage),
               "<missing>": str(root / "missing" / "x.json")}


def call(argv):
    """main(argv) with an empty stdin (for `--in -`): (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv, code, out, err):
    if code == 0:
        assert err == "", argv
        if "--out" not in argv:
            json.loads(out)
        return
    assert code == 1, argv
    assert out == "", argv
    doc = json.loads(err)
    assert doc["status"] == "error", argv
    assert doc["error"] in ERROR_CODES and doc["error"] != "internal", (argv, doc)


NUMBERS = st.integers(-6, 40).map(str)
RATIONALS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.fractions(min_value=-100, max_value=100, max_denominator=50).map(str),
    st.sampled_from(["0", "1/0", "x", "", "1.5", "-0", "3/-4"]),
)
ODD_VALUES = st.sampled_from([
    "abc", "", "real", "1e3", "0x10", "99999999999999999999", " 7", "[1, 2]", "-",
    '{"discriminant": "-1", "epsilons": {"3": -1}}', '{"discriminant": 0}',
    "<good-form>", "<garbage>", "<missing>",
])
VALUES = st.one_of(NUMBERS, RATIONALS, ODD_VALUES)
FORM_FILES = st.sampled_from(["<good-form>", "<garbage>", "<missing>", "-"])
# The value each option takes, mostly well-formed.
OPTION_VALUES = {
    "--k": NUMBERS, "--trunc": NUMBERS, "--a": NUMBERS, "--b": NUMBERS, "--c": NUMBERS,
    "--d": NUMBERS, "--local-order": NUMBERS,
    "--in": FORM_FILES, "--out": st.sampled_from(["<missing>", "out.json"]),
    "--json-indent": st.sampled_from(["0", "2", "-1", "x", "100000000000", "99999999999999999999"]),
    "--character": st.sampled_from(["trivial", "sgn", "quadratic", "other", "odd"]),
    "--q": st.one_of(st.sampled_from(["real", "2", "3", "4", "9", "25", "6", "1", "0", "-3"]), VALUES),
    "--mu-order": st.sampled_from(["1", "2", "other", "3"]),
    "--real-sign": st.sampled_from(["0", "1", "2"]),
    "--s-re": RATIONALS, "--s-im": RATIONALS,
    "--analytic": st.just(None), "--ramified": st.just(None),
}
# Every command but verify (a whole suite run), its options and how many
# positional arguments it takes; --help and --version are left out, since
# their answer is text and not a JSON document (test_cli checks them).
COMMAND_LINES = {
    "eis": (["--k", "--trunc"], 0),
    "e2": (["--trunc"], 0),
    "theta": (["--a", "--b", "--c", "--trunc"], 0),
    "raise": (["--in", "--analytic"], 0),
    "lower": (["--in", "--analytic"], 0),
    "casimir": (["--in"], 0),
    "decompose": (["--in"], 0),
    "identify": (["--in"], 0),
    "constant-term": (["--k", "--d", "--character", "--local-order", "--local-order"], 0),
    "local hilbert": ([], 3),
    "local invariants": ([], 2),
    "local coherent": ([], 1),
    "local reducible": (["--q", "--mu-order", "--ramified", "--real-sign", "--s-re", "--s-im"], 0),
    "local": ([], 0),
    "catalog": (["--d", "--k"], 0),
    "frobnicate": ([], 0),
}
assert {line.split()[0] for line in COMMAND_LINES} >= set(COMMANDS) - {"verify"}
TOKENS = st.one_of(st.sampled_from([*OPTION_VALUES, "--no-such-flag", "-x", "--"]), VALUES)


@st.composite
def argvs(draw):
    """A command with a random subset of its options and values, the right
    number of positionals give or take one, and now and then stray tokens."""
    line = draw(st.sampled_from(sorted(COMMAND_LINES)))
    options, positionals = COMMAND_LINES[line]
    argv = line.split()
    count = positionals + draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))
    argv += draw(st.lists(VALUES, min_size=max(count, 0), max_size=max(count, 0)))
    for option in options + ["--json-indent", "--out"]:
        if draw(st.integers(0, 9)) < (9 if option not in ("--json-indent", "--out") else 1):
            value = draw(OPTION_VALUES[option])
            argv += [option] if value is None else [option, value]
    if draw(st.integers(0, 4)) == 0:
        for token in draw(st.lists(TOKENS, min_size=1, max_size=3)):
            argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


def prepared(argv, files):
    """argv with its file tokens resolved and its truncation, weight and
    degree capped, so that the example stays small."""
    argv = [files.get(token, token) for token in argv]
    for flag, cap in (("--trunc", 40), ("--k", 40), ("--d", 40)):
        for i, token in enumerate(argv[:-1]):
            if token == flag and argv[i + 1].lstrip("-").isdigit() and int(argv[i + 1]) > cap:
                argv[i + 1] = str(cap)
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_random_argv_keeps_the_error_contract(files, argv):
    argv = prepared(argv, files)
    assert_contract(argv, *call(argv))


@settings(max_examples=80, deadline=None)
@given(argv=argvs(), data=st.data())
def test_an_unknown_option_always_fails_with_a_typed_code(files, argv, data):
    argv = [t for t in prepared(argv, files) if t != "--"]
    argv.insert(data.draw(st.integers(1, len(argv))), "--no-such-flag")
    code, out, err = call(argv)
    assert code == 1
    assert_contract(argv, code, out, err)


# -- form files ----------------------------------------------------------------------

JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-50, 50), st.text(max_size=5),
                         st.floats(allow_nan=False, allow_infinity=False))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=6,
)


@st.composite
def form_documents(draw):
    """Form-file documents near the valid ones, with truncation at most 30."""
    trunc = draw(st.one_of(st.integers(0, 30), st.sampled_from([-1, "3", 2.0, None])))
    top = trunc if isinstance(trunc, int) and trunc >= 0 else 30
    terms = draw(st.lists(
        st.one_of(
            st.tuples(st.integers(0, 3), st.integers(0, top + 2), RATIONALS).map(list),
            JSON_VALUES,
        ),
        max_size=10,
    ))
    doc = {
        "weight": draw(st.one_of(st.integers(-6, 30), st.sampled_from([None, "4", 4.5]))),
        "truncation": trunc,
        "terms": terms,
    }
    for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        del doc[key]
    return doc


FORM_COMMANDS = [["raise"], ["lower"], ["lower", "--analytic"], ["raise", "--analytic"],
                 ["casimir"], ["decompose"], ["identify"]]


def run_on_document(files, command, doc):
    path = files["root"] / "document.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    argv = [*command, "--in", str(path)]
    return argv, call(argv)


@settings(max_examples=120, deadline=None)
@given(command=st.sampled_from(FORM_COMMANDS), doc=st.one_of(form_documents(), JSON_VALUES))
def test_random_form_files_keep_the_error_contract(files, command, doc):
    argv, result = run_on_document(files, command, doc)
    assert_contract(argv, *result)


@settings(max_examples=80, deadline=None)
@given(
    command=st.sampled_from(FORM_COMMANDS),
    doc=form_documents(),
    breakage=st.sampled_from(["beyond", "zero", "duplicate", "literal", "exponent", "shape", "json"]),
)
def test_broken_form_files_fail_as_bad_form_file(files, command, doc, breakage):
    doc = {"weight": 4, "truncation": 5, "terms": [], **doc}
    if not isinstance(doc["truncation"], int) or doc["truncation"] < 0:
        doc["truncation"] = 5
    doc["weight"] = 4
    trunc = doc["truncation"]
    terms = [t for t in doc["terms"] if isinstance(t, list) and len(t) == 3]
    if breakage == "beyond":
        terms.append([0, trunc + 1, "1"])
    elif breakage == "zero":
        terms.append([1, 0, "0"])
    elif breakage == "duplicate":
        terms += [[2, trunc, "1"], [2, trunc, "2"]]
    elif breakage == "literal":
        terms.append([0, 0, "1/0"])
    elif breakage == "exponent":
        terms.append([-1, 0, "1"])
    elif breakage == "shape":
        terms.append([0, 0])
    doc["terms"] = terms
    argv, (code, out, err) = run_on_document(
        files, command, "{" + json.dumps(doc) if breakage == "json" else doc
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "bad-form-file", (argv, doc, err)

