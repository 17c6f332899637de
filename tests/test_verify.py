"""The invariant suite behind `nhmf verify` passes in full."""

from nhmf.verify import ALL_CHECKS, run_all


def test_run_all_passes():
    results = run_all()
    assert len(results) == len(ALL_CHECKS) == 28
    failed = [(r.name, r.detail) for r in results if not r.passed]
    assert failed == []
