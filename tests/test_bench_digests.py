"""The seed-1 result digests of the benchmark workloads, in process.

perfbench/run.py hashes the checked result of each op of a workload into a
result digest that does not depend on timing or on the interpreter, and the
bench-smoke job of .github/workflows/tier1.yml pins the seed-1 digest of each
workload.  This test runs the digest set of three workloads once, untimed,
through the benchmark's own Tally and run_rounds, and requires the pinned
digests, so that a change that alters an output fails here as well as in CI;
a change that alters one on purpose updates both pins.  cli-cold is left to
CI: its digest covers 100 fresh `python -m nhmf.cli` processes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import nhmf

ROOT = Path(__file__).resolve().parents[1]

# (workload, seed-1 digest): the whole pool of decompose-roundtrip (440 ops)
# and local-arith (9,496 ops), the first 100 ops of qexp-kernel.
PINNED = [
    ("decompose-roundtrip", "sha256:ee4dbf594e17a012e30d605bfcd9c3ce501be638b512659a051b101687fca18d"),
    ("qexp-kernel", "sha256:4ef57af59e79255b5d886ba18bbb71ee0778f78584088fb37a2553742123a582"),
    ("local-arith", "sha256:85554ce86d192f8ea37da3a5bcb0811717f364fc494172b878b56ba1d636e4a4"),
]


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module; the benchmark directory it puts first
    on sys.path, for its tracer and workloads, leaves it again."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = path
    return run


@pytest.mark.parametrize("name, digest", PINNED, ids=[name for name, _ in PINNED])
def test_the_seed_1_digest_of_a_workload_is_the_pinned_one(bench, name, digest):
    wl = bench.WORKLOADS[name](nhmf, 1, bench.ROOT)
    tally = bench.Tally(wl)
    bench.run_rounds(wl, tally, lambda rounds, t: t.ops >= t.digest_ops)
    assert tally.counts["wrong"] == tally.counts["error"] == 0, tally.counts
    assert f"sha256:{tally.digest.hexdigest()}" == digest
