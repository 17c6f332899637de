"""The invariant suite behind `nhmf verify` passes in full."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import nhmf.verify
from nhmf.generators import eisenstein2, level1_basis
from nhmf.operators import raise_weight
from nhmf.series import NearlyHolomorphicForm
from nhmf.verify import ALL_CHECKS, check_quasimodular_closure, run_all

from conftest import solve_exact


def test_run_all_passes():
    results = run_all()
    assert len(results) == len(ALL_CHECKS) == 28
    failed = [(r.name, r.detail) for r in results if not r.passed]
    assert failed == []


# The sha256 of `nhmf verify` stdout; the same value is pinned in
# .github/workflows/tier1.yml.
VERIFY_SHA256 = "0c0d8aa08a78465067cad417534f06a2c82d696122803549c1e8d0783864a6c6"


def test_the_verify_report_is_the_one_ci_pins():
    """`python -W error -m nhmf.cli verify`, in a fresh process, prints the
    report whose sha256 the workflow .github/workflows/tier1.yml checks.  A
    change that alters the report must update this pin and that workflow
    together, and log the change."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "nhmf.cli", "verify"],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_SHA256


def test_quasimodular_closure_agrees_with_solve_exact(monkeypatch):
    # The check tests R(E2), R(E4) and R(E6) for membership in the span of
    # the quasimodular monomials by echelon reduction.  Move one image at a
    # time off the span by X q^12: the check fails on it exactly when
    # solve_exact finds no solution.
    trunc = 12
    targets = [eisenstein2(trunc)] + level1_basis(4, trunc) + level1_basis(6, trunc)
    for moved in (None, *targets):

        def image(f, moved=moved):
            img = raise_weight(f)
            if f == moved:
                img = img + NearlyHolomorphicForm.monomial(img.weight, trunc, r=1, n=trunc)
            return img

        outside = []
        for f in targets:
            img = image(f)
            monomials = nhmf.verify._quasimodular_monomials(img.weight, trunc)
            if solve_exact([dict(m.terms()) for m in monomials], dict(img.terms())) is None:
                outside.append(f"weight {img.weight}")
        assert len(outside) == (moved is not None)
        monkeypatch.setattr(nhmf.verify, "raise_weight", image)
        assert check_quasimodular_closure() == (True if not outside else (False, outside[0]))
