"""The invariant suite behind `nhmf verify` passes in full."""

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
