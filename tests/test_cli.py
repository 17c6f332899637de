"""CLI dispatcher: JSON I/O, determinism, error codes, exit behavior."""

import json
import time
from fractions import Fraction

import pytest

import nhmf.cli
from nhmf.cli import main, run
from nhmf.errors import ERROR_CODES
from nhmf.series import NearlyHolomorphicForm


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

    def test_unexpected_exception_is_internal(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(nhmf.cli, "catalog", boom)
        result = run(["catalog", "--d", "1", "--k", "2"])
        assert not result.ok and result.code == "internal"
        assert result.payload["error"] == "internal"
        assert result.payload["message"] == "RuntimeError: boom"
        assert "RuntimeError: boom" in result.diagnostics[0]
        assert main(["catalog", "--d", "1", "--k", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"] == "internal"


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
