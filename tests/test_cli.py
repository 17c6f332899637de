"""CLI dispatcher: JSON I/O, determinism, error codes, exit behavior."""

import gc
import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import nhmf.cli
from nhmf.arith import MAX_DEGREE, MAX_WEIGHT
from nhmf.cli import main, main_process, run
from nhmf.errors import ERROR_CODES
from nhmf.generators import eisenstein
from nhmf.operators import raise_weight
from nhmf.series import MAX_FILE_ENTRIES, NearlyHolomorphicForm


def payload(argv):
    result = run(argv)
    assert result.ok, result.payload
    return result.payload


class TestFormCommands:
    def test_e2_terms(self):
        doc = payload(["e2", "--trunc", "5"])
        assert doc["weight"] == 2 and doc["truncation"] == 5
        terms = {(r, n): c for r, n, c in doc["terms"]}
        assert terms[(1, 0)] == "12"
        assert terms[(0, 0)] == "-1"
        assert terms[(0, 1)] == "24"
        assert doc["terms"] == sorted(doc["terms"])

    def test_eis_and_theta(self):
        doc = payload(["eis", "--k", "4", "--trunc", "2"])
        assert doc["terms"] == [[0, 0, "1"], [0, 1, "240"], [0, 2, "2160"]]
        doc = payload(["theta", "--a", "1", "--b", "0", "--c", "1", "--trunc", "3"])
        assert doc["terms"] == [[0, 0, "1"], [0, 1, "4"], [0, 2, "4"]]

    def test_emitted_form_reparses_identically(self, tmp_path):
        out = tmp_path / "form.json"
        assert main(["e2", "--trunc", "6", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        form = NearlyHolomorphicForm.from_doc(doc)
        assert form.to_doc() == doc

    def test_operator_pipeline(self, tmp_path):
        out = tmp_path / "e4.json"
        main(["eis", "--k", "4", "--trunc", "4", "--out", str(out)])
        raised = payload(["raise", "--in", str(out)])
        assert raised["weight"] == 6
        lowered = payload(["lower", "--in", str(out)])
        assert lowered["terms"] == []  # holomorphic kernel
        cas = payload(["casimir", "--in", str(out)])
        e4 = NearlyHolomorphicForm.from_doc(json.loads(out.read_text()))
        assert NearlyHolomorphicForm.from_doc(cas) == e4 * 8

    def test_analytic_flag(self, tmp_path):
        out = tmp_path / "e2.json"
        main(["e2", "--trunc", "4", "--out", str(out)])
        doc = payload(["lower", "--in", str(out), "--analytic"])
        assert doc["scalar"] == [["-1", "-1/4", "0"]]
        assert doc["form"]["terms"] == [[0, 0, "12"]]


class TestDecomposeIdentify:
    def test_decompose_weight_two_series(self, tmp_path):
        out = tmp_path / "e2.json"
        main(["e2", "--trunc", "6", "--out", str(out)])
        doc = payload(["decompose", "--in", str(out)])
        assert doc == {"terms": [], "e2": {"m": 0, "c": "1"}}

    def test_identify(self, tmp_path):
        out = tmp_path / "e2.json"
        main(["e2", "--trunc", "6", "--out", str(out)])
        doc = payload(["identify", "--in", str(out)])
        assert doc == {"kind": "dual_verma", "lambda": "0"}

    def test_max_steps_is_retired(self, tmp_path):
        # --max-steps was accepted and ignored; it is now an unknown option.
        out = tmp_path / "e4.json"
        main(["eis", "--k", "4", "--trunc", "6", "--out", str(out)])
        raised = tmp_path / "r_e4.json"
        main(["raise", "--in", str(out), "--out", str(raised)])
        assert payload(["identify", "--in", str(raised)]) == {"kind": "simple", "lambda": "4"}
        for budget in (["--max-steps", "2"], ["--max-steps", "0"], ["--max-steps=2"]):
            result = run(["identify", "--in", str(raised), *budget])
            assert result.code == "usage", budget

    def test_ambiguous_module_candidates_are_a_json_array(self, tmp_path):
        # A weight-two Casimir eigenform that is not a multiple of the
        # weight-two seed: E2 without its q^1 coefficient.
        e2 = NearlyHolomorphicForm.from_doc(payload(["e2", "--trunc", "8"]))
        fake = NearlyHolomorphicForm(
            2, 8, {key: value for key, value in e2.terms() if key != (0, 1)}
        )
        path = tmp_path / "fake.json"
        path.write_text(json.dumps(fake.to_doc()))
        result = run(["identify", "--in", str(path)])
        assert result.code == "ambiguous-module"
        doc = json.loads(result.text)
        assert doc["message"] == "form is not a multiple of the raised weight-two seed"
        assert doc["candidates"] == ["L(2)", "triv", "N(0)", "N(0)^v", "P(2)"]


class TestConstantTerm:
    def test_weight_two_residue(self):
        doc = payload(["constant-term", "--k", "2", "--d", "1", "--character", "trivial"])
        assert doc["verdict"]["kind"] == "SectionPlusResidue"
        assert doc["verdict"]["leading"] == "-3·π^-1"

    def test_higher_degree(self):
        doc = payload(["constant-term", "--k", "2", "--d", "2"])
        assert doc["verdict"]["kind"] == "PureSection"

    def test_local_order_flag(self):
        doc = payload(["constant-term", "--k", "2", "--d", "1", "--local-order", "1"])
        assert doc["verdict"]["kind"] == "PureSection"


class TestLocal:
    def test_hilbert(self):
        assert payload(["local", "hilbert", "2", "5", "5"])["symbol"] == -1
        assert payload(["local", "hilbert", "-1", "-1", "real"])["symbol"] == -1

    def test_invariants(self):
        doc = payload(["local", "invariants", "1", "1"])
        assert doc["discriminant"] == "-1"
        by_place = {entry["place"]: entry for entry in doc["places"]}
        assert by_place["real"]["chi_nontrivial"] is True
        assert by_place["real"]["epsilon"] == 1

    def test_coherent(self):
        doc = payload(
            ["local", "coherent", '{"discriminant": "-1", "epsilons": {"3": -1, "7": -1}}']
        )
        assert doc["coherent"] is True and doc["witness"] is not None
        doc = payload(
            ["local", "coherent", '{"discriminant": "-1", "epsilons": {"3": -1}}']
        )
        assert doc["coherent"] is False and doc["witness"] is None

    def test_reducible(self):
        doc = payload(
            ["local", "reducible", "--q", "3", "--mu-order", "2", "--s-re", "0"]
        )
        assert doc["reducible"] is True
        assert doc["constituents"] == ["R(V+)", "R(V-)"]
        doc = payload(
            ["local", "reducible", "--q", "real", "--mu-order", "2",
             "--real-sign", "1", "--s-re", "0"]
        )
        assert doc["lowering_finite_vector"] is True


@pytest.mark.parametrize(
    "argv, spelled_out",
    [
        ("local hilbert -3/4 10/9 2", "local hilbert -- -3/4 10/9 2"),
        ("local invariants -3/4 -5", "local invariants -- -3/4 -5"),
        ("local reducible --q 3 --s-re -1/2", "local reducible --q 3 --s-re=-1/2"),
    ],
)
def test_negative_fractions_are_arguments(argv, spelled_out, capsys):
    # -3/4 is read as a value wherever -3 is, with the answer it gets when
    # the command line says outright that it is one.
    assert main(argv.split()) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert main(spelled_out.split()) == 0
    assert capsys.readouterr().out == out


class TestErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "usage" in err["diagnostics"][0]

    def test_malformed_form_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"weight": 2, "truncation": 3, "terms": [[0, 0, "0"]]}')
        result = run(["raise", "--in", str(bad)])
        assert not result.ok and result.code == "bad-form-file"

    @pytest.mark.parametrize(
        "value",
        ["null", "0.1", "1e400", "true", "[1]", "{}", "weight:true", "exponent:false"],
    )
    def test_a_form_file_value_that_is_not_exact_is_a_bad_form_file(self, value, tmp_path, capsys):
        # 0.1 as a JSON float is 3602879701896397/36028797018963968, not 1/10:
        # a form file coefficient is a string or an integer, and the weight,
        # truncation and exponents are integers, never bools.
        doc = '{"weight": 4, "truncation": 2, "terms": [[0, 1, %s]]}' % value
        if value == "weight:true":
            doc = '{"weight": true, "truncation": 2, "terms": [[0, 1, "1"]]}'
        elif value == "exponent:false":
            doc = '{"weight": 4, "truncation": 2, "terms": [[false, 1, "1"]]}'
        path = tmp_path / "form.json"
        path.write_text(doc)
        for command in (["raise"], ["decompose"], ["identify"]):
            assert main([*command, "--in", str(path)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and json.loads(err)["error"] == "bad-form-file", (command, err)

    @pytest.mark.parametrize(
        "collection",
        [
            '{"discriminant": 0.1, "epsilons": {}}',
            '{"discriminant": true, "epsilons": {}}',
            '{"discriminant": null, "epsilons": {}}',
            '{"discriminant": [-1], "epsilons": {}}',
            '{"discriminant": "-1", "epsilons": {"3": -1.5, "7": -1}}',
            '{"discriminant": "-1", "epsilons": {"3": -1.0, "7": -1}}',
            '{"discriminant": "-1", "epsilons": {"3": true}}',
            '{"discriminant": "-1", "epsilons": {"3": null}}',
            '{"discriminant": "-1", "epsilons": {"3": "-1.5"}}',
            '{"discriminant": "-1", "epsilons": {"3": [-1]}}',
            '{"discriminant": "-1", "epsilons": [-1]}',
            '{"discriminant": "-1", "epsilons": null}',
        ],
    )
    def test_a_collection_value_that_is_not_exact_is_a_usage_error(self, collection, capsys):
        # 0.1 as a JSON float is not 1/10, -1.5 is no sign to truncate to -1,
        # and true is no 1: the discriminant is a rational literal or an
        # integer, each epsilon an integer or a string that reads as one.
        assert main(["local", "coherent", collection]) == 1
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "usage", err

    def test_a_collection_reads_integer_and_string_values_exactly(self):
        want = payload(["local", "coherent", '{"discriminant": "-1", "epsilons": {"3": -1, "7": -1}}'])
        for collection in (
            '{"discriminant": -1, "epsilons": {"3": -1, "7": -1}}',
            '{"discriminant": "-2/2", "epsilons": {"3": "-1", "7": " -1 "}}',
            '{"discriminant": "-1e0", "epsilons": {"3": -1, "7": -1}}',
        ):
            assert payload(["local", "coherent", collection]) == want

    def test_domain_error_code(self):
        result = run(["eis", "--k", "3", "--trunc", "4"])
        assert result.code == "out-of-domain"

    def test_not_decomposable_carries_residual(self, tmp_path):
        bad = tmp_path / "nonmodular.json"
        bad.write_text(
            json.dumps({"weight": 8, "truncation": 6, "terms": [[0, 1, "1"]]})
        )
        result = run(["decompose", "--in", str(bad)])
        assert result.code == "not-decomposable"
        assert "residual" in result.payload

    def test_exit_codes(self, tmp_path, capsys):
        assert main(["e2", "--trunc", "3"]) == 0
        capsys.readouterr()
        assert main(["eis", "--k", "5", "--trunc", "3"]) == 1

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["eis", "--k", "4", "--trunc", "-1"], "out-of-domain"),
            (["e2", "--trunc", "-1"], "out-of-domain"),
            (["theta", "--a", "1", "--b", "0", "--c", "1", "--trunc", "-3"], "out-of-domain"),
            (["local", "reducible", "--q", "abc"], "usage"),
        ],
    )
    def test_bad_arguments_get_typed_errors(self, argv, code, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] in ERROR_CODES and doc["error"] == code

    def test_unwritable_out_gets_typed_error(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "x.json"
        assert main(["e2", "--trunc", "3", "--out", str(target)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        doc = json.loads(err)
        assert doc["status"] == "error" and doc["error"] == "usage"
        assert str(target) in doc["message"]
        assert not target.exists()

    def test_json_indent_past_its_bound_is_a_usage_error(self, capsys):
        # Up to MAX_JSON_INDENT = 64 the indent is json.dumps's (-1 breaks
        # lines and indents nothing); past it the command does not run.
        argv = ["eis", "--k", "4", "--trunc", "3"]
        doc = payload(argv)
        for value in ("64", "-1"):
            assert main(argv + ["--json-indent", value]) == 0
            out, _ = capsys.readouterr()
            assert out == json.dumps(doc, indent=int(value), sort_keys=True) + "\n"
        for value in ("65", "100000000000", "10000000000000000000000"):
            assert main(argv + ["--json-indent", value]) == 1
            out, err = capsys.readouterr()
            error = json.loads(err)
            assert out == "" and error["error"] == "usage"
            assert error["message"] == f"--json-indent must be at most 64, got {value}"

    def test_unexpected_exception_is_internal(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(nhmf.category_o, "catalog", boom)
        result = run(["catalog", "--d", "1", "--k", "2"])
        assert not result.ok and result.code == "internal"
        assert result.payload["error"] == "internal"
        assert result.payload["message"] == "RuntimeError: boom"
        assert "RuntimeError: boom" in result.diagnostics[0]
        assert main(["catalog", "--d", "1", "--k", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "internal"


# A cold `nhmf` process, run from this checkout's source.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
COLD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))}
COLD = [sys.executable, "-m", "nhmf.cli"]


def test_a_closed_stdout_pipe_exits_nonzero_without_a_traceback():
    # The pipe has no reader from the start, as after `nhmf verify | head -c 300`
    # once head has exited: every write to it fails with EPIPE.
    for argv in (["eis", "--k", "4", "--trunc", "8"],
                 ["theta", "--a", "1", "--b", "0", "--c", "1", "--trunc", "5000"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([*COLD, *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=COLD_ENV, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode != 0, argv
        assert proc.stderr == b"", proc.stderr  # in particular, no traceback


# A success, a typed refusal (odd weight) and a usage error.
ENTRY_ARGV = [(["eis", "--k", "4", "--trunc", "3"], 0),
              (["eis", "--k", "3", "--trunc", "2"], 1),
              (["frobnicate"], 1)]


def test_main_in_process_leaves_the_collector_as_it_was(capsys):
    before = gc.isenabled(), gc.get_freeze_count()
    for argv, status in [*ENTRY_ARGV, (["--help"], 0)]:
        assert main(argv) == status
        assert (gc.isenabled(), gc.get_freeze_count()) == before, argv


def test_the_process_entry_freezes_once_after_the_document_is_written(monkeypatch, tmp_path, capsys):
    # At each freeze, what the command had written by then.
    seen = []
    target = tmp_path / "e4.json"
    monkeypatch.setattr(gc, "freeze", lambda: seen.append((capsys.readouterr(), target.exists())))
    for argv, status in ENTRY_ARGV:
        assert main(argv) == status
        expected = capsys.readouterr()
        del seen[:]
        assert main_process(argv) == status
        assert seen == [(expected, False)], argv
    del seen[:]
    assert main_process(["eis", "--k", "4", "--trunc", "3", "--out", str(target)]) == 0
    assert seen == [(("", ""), True)]


@pytest.mark.parametrize("argv", [["eis"], ["eis", "--k", "3"], ["eis", "--k", "3", "--trunc", "2"],
                                  ["frobnicate"], ["--help"], ["eis", "--k", "4", "--trunc", "3"]],
                         ids=" ".join)
def test_a_cold_process_answers_as_main_does_in_process(argv, tmp_path, capsys):
    status = main(argv)
    expected = capsys.readouterr()
    proc = subprocess.run([*COLD, *argv], capture_output=True, text=True, env=COLD_ENV, timeout=60)
    assert (proc.stdout, proc.stderr, proc.returncode) == (expected.out, expected.err, status)
    # The same command with --out: the file's contents, and nothing on stdout.
    if status == 0 and argv != ["--help"]:
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        assert main([*argv, "--out", str(warm)]) == 0
        proc = subprocess.run([*COLD, *argv, "--out", str(cold)], capture_output=True, text=True,
                              env=COLD_ENV, timeout=60)
        assert (proc.stdout, proc.stderr, proc.returncode) == ("", "", 0)
        assert cold.read_text() == warm.read_text() != ""


def test_a_failing_property_fails_verify(monkeypatch, capsys):
    import nhmf.verify

    def check_forced_failure():
        return False, "forced"

    def check_forced_crash():
        raise RuntimeError("boom")

    checks = [nhmf.verify.check_xi_selfdual_point, check_forced_failure, check_forced_crash]
    monkeypatch.setattr(nhmf.verify, "ALL_CHECKS", checks)
    assert run(["verify"]).code == "verify-failed"
    assert main(["verify"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {
        "status": "error",
        "error": "verify-failed",
        "message": "failing properties: forced-failure, forced-crash",
        "all_pass": False,
        "properties": [
            {"name": "xi-selfdual-point", "pass": True, "detail": "order 0"},
            {"name": "forced-failure", "pass": False, "detail": "forced"},
            {"name": "forced-crash", "pass": False, "detail": "exception: RuntimeError('boom')"},
        ],
        "diagnostics": ["failing properties: forced-failure, forced-crash"],
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "missing command; expected one of: " + ", ".join(nhmf.cli.COMMANDS)),
        (["local"], "local needs a subcommand: hilbert | invariants | coherent | reducible"),
    ],
)
def test_a_missing_subcommand_is_a_usage_error(argv, message, capsys):
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "usage" and doc["message"] == message


@pytest.mark.parametrize("argv", [["--help"], ["local", "--help"], ["eis", "-h"], ["local", "reducible", "-h"]])
def test_help_is_printed_to_stdout_from_the_table(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    usage, _, help_line, _, *rows = out.splitlines()
    node = nhmf.cli._ROOT
    for name in argv[:-1]:
        node = node.commands[name]
    assert usage.startswith("usage: " + " ".join(["nhmf", *argv[:-1]]))
    assert help_line == node.help
    # A line for each subcommand and option, the first word naming it.
    named = [row.split()[0].rstrip(",") for row in rows if row]
    assert named == [*node.commands, "-h", *(o.name for o in node.listed[1:])]
    if argv == ["--help"]:
        assert usage == nhmf.cli._ROOT.usage("nhmf") and [*node.commands] == list(nhmf.cli.COMMANDS)
    if argv == ["eis", "-h"]:
        assert out == (
            "usage: nhmf eis [options]\n\n"
            "holomorphic Eisenstein series of even weight >= 4\n\n"
            "  -h, --help                 show this help and exit\n"
            "  --k K                      (required)\n"
            "  --trunc TRUNC              q-truncation N (required)\n"
            "  --out OUT                  output file (default stdout)\n"
            "  --json-indent JSON_INDENT\n"
        )


def test_version_is_printed_to_stdout(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr() == (f"nhmf {nhmf.__version__}\n", "")


def test_invariants_of_large_semiprime_are_fast(capsys):
    # 1000000007 * 1000000009: beyond trial division, within Pollard rho.
    start = time.perf_counter()
    assert main(["local", "invariants", "1000000016000000063", "1"]) == 0
    elapsed = time.perf_counter() - start
    places = [p["place"] for p in json.loads(capsys.readouterr().out)["places"]]
    assert "1000000007" in places and "1000000009" in places
    assert elapsed < 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ["local", "invariants", "3317044064679887385961981", "1"],
        ["local", "reducible", "--q", "3317044064679887385961981"],
    ],
)
def test_composite_past_the_primality_bound_is_not_a_place(argv, capsys):
    # 1287836182261 * 2575672364521, a strong pseudoprime to every base used.
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "out-of-domain"


def test_output_deterministic(capsys):
    assert main(["catalog", "--d", "1", "--k", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["catalog", "--d", "1", "--k", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second and first.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ["eis", "--k", "3000", "--trunc", "2"],
        ["eis", "--k", "4", "--trunc", "100000000"],
        ["local", "invariants", "1000000000003038000000000111037", "1"],
    ],
)
def test_inputs_past_the_size_bounds_are_refused_quickly(argv, capsys):
    # A weight past MAX_WEIGHT, a truncation past MAX_TRUNCATION, and a
    # product of two 16-digit primes past the Pollard rho step budget.
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 2.0
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "out-of-domain"


def test_raising_a_form_file_at_the_size_bound_is_out_of_domain(tmp_path, capsys):
    # q at N = 10^6 - 1 stores MAX_FILE_ENTRIES coefficients, the most a form
    # file may hold; its image under raise would store twice that.
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"weight": 4, "truncation": MAX_FILE_ENTRIES - 1, "terms": [[0, 1, "1"]]}))
    start = time.perf_counter()
    assert main(["raise", "--in", str(path)]) == 1
    assert time.perf_counter() - start < 2.0
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "out-of-domain"


def _residual_past_the_digit_limit() -> NearlyHolomorphicForm:
    # The top column of delta(C * E4) at truncation 5, with C chosen so that
    # its longest coefficient, C times 4 * 240 * sigma_3(5), has 4300 digits,
    # plus q at depth 0 to leave the span: the peeled residual holds a
    # coefficient of 4301 digits.
    top = raise_weight(eisenstein(4, 5) * (10**4300 // (4 * 30240))).x_column(1)
    return NearlyHolomorphicForm(6, 5, {(0, 1): 1, **{(1, n): c for n, c in top.items()}})


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no digit limit"
)
@pytest.mark.parametrize(
    "command, doc",
    [
        (["local", "invariants", str(2**13000), str(2**13000)], None),
        (["raise"], {"weight": 4, "truncation": 100, "terms": [[0, 100, "9" * 4299]]}),
        (["raise"], {"weight": int("9" * 4300), "truncation": 3, "terms": [[0, 1, "1"]]}),
        (["decompose"], "residual"),
    ],
    ids=["discriminant", "coefficient", "weight", "residual"],
)
def test_numbers_past_the_interpreter_digit_limit_are_out_of_domain(command, doc, tmp_path, capsys):
    # The interpreter converts an int of at most 4300 digits to or from text.
    # Each input is valid and within that limit, but the answer is not: the
    # discriminant of <2^13000, 2^13000> has 7827 digits, raising multiplies a
    # 4299-digit coefficient by 100, the raised weight of a 4300-digit weight
    # has 4301 digits, and so has the residual of a refused decomposition.
    if doc == "residual":
        doc = _residual_past_the_digit_limit().to_doc()
    if doc is not None:
        path = tmp_path / "form.json"
        path.write_text(json.dumps(doc))
        command = [*command, "--in", str(path)]
    assert main(command) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "out-of-domain"
    assert str(sys.get_int_max_str_digits()) in json.loads(err)["message"]


_PAST_THE_DIGIT_LIMIT = "9" * 4301


_FORM_COEFFICIENT = '{"weight": 4, "truncation": 3, "terms": [[0, 1, "%s"]]}'


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no digit limit"
)
@pytest.mark.parametrize(
    "command, text, code, literal",
    [
        (["raise"], '{"weight": %s, "truncation": 3, "terms": [[0, 1, "1"]]}', "bad-form-file",
         _PAST_THE_DIGIT_LIMIT),
        (["raise"], _FORM_COEFFICIENT, "bad-form-file", _PAST_THE_DIGIT_LIMIT),
        (["local", "coherent"], '{"discriminant": "-1", "epsilons": {"2": %s}}', "usage",
         _PAST_THE_DIGIT_LIMIT),
        (["local", "coherent"], '{"discriminant": "%s", "epsilons": {"2": 1}}', "usage",
         _PAST_THE_DIGIT_LIMIT),
        (["raise"], _FORM_COEFFICIENT, "bad-form-file", "1e10000000"),
        (["raise"], _FORM_COEFFICIENT, "bad-form-file", "-1.5e-10000000"),
        (["raise"], _FORM_COEFFICIENT, "bad-form-file", "1e4300"),
        (["local", "coherent"], '{"discriminant": "%s", "epsilons": {"2": 1}}', "usage",
         "1e10000000"),
        (["local", "invariants", "1"], "%s", "usage", "1e10000000"),
        (["local", "hilbert", "3", "1e-1000000"], "%s", "usage", "5"),
        (["local", "reducible", "--q", "3", "--s-re"], "%s", "usage", "1e2000000"),
    ],
    ids=[
        "form-weight", "form-coefficient", "coherent-epsilon", "coherent-discriminant",
        "form-coefficient-exponent", "form-coefficient-negative-exponent",
        "form-coefficient-value", "coherent-discriminant-exponent", "rational-exponent",
        "rational-negative-exponent", "rational-argument-exponent",
    ],
)
def test_an_input_number_past_the_digit_limit_gets_the_code_of_its_input(
    command, text, code, literal, tmp_path
):
    # A number of 4301 digits is refused where it is read, whether it is a
    # JSON integer (which json.loads refuses) or a string (which Fraction or
    # int refuses): a form file answers bad-form-file, a collection usage.
    # So is a literal whose value would have more than 4300 digits, such as
    # 1e4300, and one with a large exponent is refused before its power of
    # ten is built.
    text = text % literal
    if command == ["raise"]:
        path = tmp_path / "form.json"
        path.write_text(text)
        command = [*command, "--in", str(path)]
    else:
        command = [*command, text]
    start = time.perf_counter()
    assert run(command).code == code
    assert time.perf_counter() - start < 1.0


def test_a_skewed_theta_form_answers_quickly():
    # x^2 + 2*10^6 xy + (10^12 + 1) y^2 is x^2 + y^2 after x -> x - 10^6 y.
    start = time.perf_counter()
    doc = payload(["theta", "--a", "1", "--b", "2000000", "--c", str(10**12 + 1), "--trunc", "10"])
    assert time.perf_counter() - start < 1.0
    assert doc == payload(["theta", "--a", "1", "--b", "0", "--c", "1", "--trunc", "10"])


def test_the_largest_in_bound_eisenstein_series_answers(capsys):
    # E_500 to q^10000 has numerators of 2006 digits, within the digit limit.
    assert main(["eis", "--k", str(MAX_WEIGHT), "--trunc", "10000"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert max(len(c) for _, _, c in doc["terms"]) > 2000


@pytest.mark.parametrize(
    "argv, ok",
    [
        (["constant-term", "--k", str(MAX_WEIGHT), "--d", str(MAX_DEGREE)], True),
        (["constant-term", "--k", str(MAX_WEIGHT + 1)], False),
        (["constant-term", "--k", "100000"], False),
        (["constant-term", "--k", "2", "--d", str(MAX_DEGREE + 1)], False),
        (["catalog", "--d", str(MAX_DEGREE), "--k", str(MAX_WEIGHT)], True),
        (["catalog", "--d", str(MAX_DEGREE + 1), "--k", "3"], False),
        (["catalog", "--d", "1000000000", "--k", "3"], False),
        (["catalog", "--d", "1", "--k", str(MAX_WEIGHT + 1)], False),
    ],
)
def test_constant_term_and_catalog_bounds(argv, ok, capsys):
    # A weight up to MAX_WEIGHT and a degree up to MAX_DEGREE are answered,
    # and anything past them is refused before any work.
    start = time.perf_counter()
    assert main(argv) == (0 if ok else 1)
    assert time.perf_counter() - start < 2.0
    out, err = capsys.readouterr()
    if not ok:
        assert out == "" and json.loads(err)["error"] == "out-of-domain"


def readme_cli_examples():
    """(argv, comment) for each `nhmf` line of the README's CLI block; a
    comment-only line continues the comment of the command above it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            argv = shlex.split(command)
            assert argv[0] == "nhmf", line
            examples.append((argv[1:], comment.strip()))
        elif comment.strip():
            argv, above = examples[-1]
            examples[-1] = (argv, f"{above} {comment.strip()}".strip())
    return examples


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    # Every README CLI line exits 0, in order (later lines read e2.json);
    # a result its comment states is checked against the output.
    monkeypatch.chdir(tmp_path)
    examples = readme_cli_examples()
    assert len(examples) == 18
    checked = 0
    for argv, comment in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        doc = json.loads(out) if out else None
        if comment.startswith("{"):
            assert doc == json.loads(comment), argv
            checked += 1
        elif argv[:2] == ["local", "hilbert"]:
            assert doc["symbol"] == int(re.search(r"= (-?1)$", comment).group(1))
            checked += 1
        elif argv[0] == "constant-term":
            kind = re.match(r"(\w+)", comment).group(1)
            assert doc["verdict"]["kind"] == kind, argv
            if "leading" in comment:
                assert doc["verdict"]["leading"] == comment.split("leading ")[1]
            checked += 1
    assert checked == 6
    assert json.loads((tmp_path / "e2.json").read_text())["weight"] == 2
