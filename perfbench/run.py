"""nhmf benchmark: one closed-loop caller, one workload per process.

    python3 perfbench/run.py --workload decompose-roundtrip --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload, untraced
    python3 perfbench/run.py --workload all --seed 1 --trace 1  # every per-layer metric

Untraced (``--trace 0``): set-up (import, seeded inputs, warm-up), then whole
rounds of operations, each issued when the previous one has returned and
been checked, until ``--seconds`` of op time have passed, at least 100 ops
(a cyclic workload: its whole pool) ran and the rounds fill whole periods
of the workload's mix.  cli-cold instead runs a number of rounds fixed by
``--seconds`` (at least 100 ops), so that its op and failure counts do not
depend on the host's speed.  Only the calls are timed; checks, the result digest
and the machine-speed reference samples run between them.  ``setup_s`` is
the median of nine fresh processes, each timed from spawn until its set-up
is done.

Traced (``--trace 1``): a fixed number of whole rounds, alternately untraced
and traced; the per-layer metrics come from the traced rounds and the spans
are written to ``.bench_out/``.  See DESIGN.md for the metrics.

Prints one line per metric and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from array import array
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import SpanLog, Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, CliCold  # noqa: E402

# Reference-task times on the machine the baseline was taken on: one
# reference_loop(), and one bare interpreter start (`python3 -c pass`).
REFERENCE_S = 0.007
INTERPRETER_S = 0.065
MIN_OPS = 100  # so that at least ten samples lie beyond op_p90_ms
DIGEST_OPS = 100  # the digest of a workload that does not cycle covers its first ops
SETUP_SAMPLES = 9
INTERPRETER_SAMPLES = 5


def reference_loop():
    """Fixed work that never touches the program under test.

    A mix like the program's own: small and large exact fractions, dict
    traffic and a small-integer trial-division loop.
    """
    big = 3**150
    seen = {}
    for i in range(1, 400):
        x = Fraction(3 * i + 1, 2 * i + 3) * Fraction(i * i + 7, 5 * i + 2) + Fraction(i, 11)
        y = Fraction(big + i, 7 * i + 1) * Fraction(big - 3 * i, 2**64 + i)
        seen[i, i % 7] = (x.numerator ^ y.numerator) % 1009
    n = 30011 * 30013
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
        d += 1
    return seen, n


class MachineSpeed:
    """Samples a fixed reference task between ops to track the machine's speed.

    The host's speed drifts by tens of percent within seconds and between
    minutes, which would swamp the program's own changes.  Each op's
    latency is therefore scaled by nominal / (median of the reference
    samples taken around it), i.e. reported in the time of the machine the
    baseline was taken on; the raw timings are printed as well.  In-process
    workloads use reference_loop(); cli-cold, whose ops are dominated by
    process start, uses a bare interpreter start.
    """

    WINDOW = 3  # samples on each side of an op that set its scale

    def __init__(self, task, nominal_s: float, every_s: float):
        self.task = task
        self.nominal_s = nominal_s
        self.every_s = every_s  # op time between two samples
        self.samples: list[float] = []
        self.ops_before: list[int] = []  # ops finished before each sample
        self._since = 0.0

    def sample(self, ops: int):
        t0 = perf_counter()
        self.task()
        self.samples.append(perf_counter() - t0)
        self.ops_before.append(ops)

    def after_op(self, tally):
        measured = tally.measured_s()
        if not self.samples or measured - self._since >= self.every_s:
            self._since = measured
            self.sample(tally.ops)

    @property
    def scale(self) -> float:
        """Run-wide factor taking a measured time to reference-machine time."""
        return self.nominal_s / statistics.median(self.samples)

    def scaled(self, latencies) -> list[float]:
        """Each latency times the factor of the samples around it."""
        out = []
        j = 0
        for i, t in enumerate(latencies):
            while j + 1 < len(self.ops_before) and self.ops_before[j + 1] <= i:
                j += 1
            near = self.samples[max(0, j - self.WINDOW + 1) : j + self.WINDOW + 1]
            out.append(t * self.nominal_s / statistics.median(near))
        return out


def machine_speed(wl) -> MachineSpeed:
    if isinstance(wl, CliCold):
        return MachineSpeed(lambda: interpreter_start(wl.env), INTERPRETER_S, 0.3)
    return MachineSpeed(reference_loop, REFERENCE_S, 0.5)


def load_program():
    src = ROOT / "src"
    if not (src / "nhmf" / "__init__.py").is_file():
        raise FileNotFoundError(f"program sources not found under {src}")
    sys.path.insert(0, str(src))
    import nhmf

    return nhmf


class Tally:
    """Checks each finished op, outside its timing, and keeps what the metrics need.

    Every op is checked, and its value is dropped once checked, so memory
    does not grow with the run.  The result digest covers the whole first
    pass of a cyclic workload and the first DIGEST_OPS ops of any other.
    Checks run inside quiet() (the tracer's pause in traced runs), so that
    they never count as the program's work.  Latencies go to the current
    bucket (traced runs keep traced ops apart).
    """

    def __init__(self, wl, collect=None, after=None, quiet=nullcontext):
        self.wl = wl
        self.collect = collect  # optional hook(op, value) before the check
        self.after = after  # optional hook(tally) once the op is recorded
        self.quiet = quiet
        self.bucket = "untraced"
        self.latencies: dict[str, array] = {"untraced": array("d")}
        self._time: dict[str, float] = {}
        self.counts = {"ok": 0, "wrong": 0, "error": 0}
        self.digest = hashlib.sha256()
        self.digest_ops = sum(map(len, wl.rounds)) if wl.cyclic else DIGEST_OPS
        self.ops = 0

    def measured_s(self, bucket="untraced") -> float:
        return self._time.get(bucket, 0.0)

    def rate(self, bucket) -> float:
        return len(self.latencies[bucket]) / self.measured_s(bucket)

    def add(self, op, value, error, latency):
        if self.collect is not None:
            self.collect(op, value)
        with self.quiet():
            status, canon = self.wl.check(op, value, error)
            if self.ops < self.digest_ops:
                text = json.dumps(canon, sort_keys=True, separators=(",", ":"), default=str)
                self.digest.update(text.encode() + b"\n")
        self.counts[status] += 1
        self.ops += 1
        self.latencies.setdefault(self.bucket, array("d")).append(latency)
        self._time[self.bucket] = self._time.get(self.bucket, 0.0) + latency
        if self.after is not None:
            self.after(self)


def run_rounds(wl, tally: Tally, done, before_round=None) -> Tally:
    """Closed loop over whole rounds from round 0; done(rounds, tally) ends it.

    Each op is issued when the previous one has returned and been checked;
    only the call itself is timed.  before_round(r) runs untimed.
    """
    r = 0
    while (ops := wl.round_at(r)) is not None:
        if before_round is not None:
            before_round(r)
        for op in ops:
            t0 = perf_counter()
            try:
                value, error = wl.call(op), None
            except Exception as exc:  # a failed op is counted, never fatal
                value, error = None, exc
            latency = perf_counter() - t0
            tally.add(op, value, error, latency)
        r += 1
        if done(r, tally):
            break
    return tally


def peak_rss_mb(wl) -> float:
    """High-water mark of the process that ran the program's code."""
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliCold) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def interpreter_start(env=None) -> float:
    """Time of one bare interpreter start (`python3 -c pass`)."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
    return perf_counter() - t0


def reference_sample() -> float:
    """Median time of three reference_loop() calls."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        reference_loop()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def measure_setup(args) -> tuple[float, float]:
    """Set-up time of fresh benchmark processes: (raw, reference-machine) medians.

    Each probe is timed from spawn until its set-up is done, and reports the
    part of that spent in main(): loading the program, making the inputs and
    the warm-up.  The median of that part is scaled by the median of
    reference_loop() samples, and the median of the rest, interpreter start,
    by the median of bare interpreter starts; both kinds of sample are taken
    between the probes.
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    totals, inner, interp, ref = [], [], [interpreter_start()], [reference_sample()]
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as probe:
            line = probe.stdout.readline()
            totals.append(perf_counter() - t0)
            probe.stdout.read()
        word, _, in_main = line.decode().partition(" ")
        if word != "ready" or probe.returncode:
            raise RuntimeError(f"set-up probe failed with status {probe.returncode}")
        inner.append(float(in_main))
        interp.append(interpreter_start())
        ref.append(reference_sample())
    start = statistics.median(t - i for t, i in zip(totals, inner))
    scaled = (
        start * INTERPRETER_S / statistics.median(interp)
        + statistics.median(inner) * REFERENCE_S / statistics.median(ref)
    )
    return statistics.median(totals), scaled


def interpreter_start_samples(env) -> list[float]:
    return [interpreter_start(env) for _ in range(INTERPRETER_SAMPLES)]


def untraced(wl, args):
    speed = machine_speed(wl)
    tally = Tally(wl, after=speed.after_op)
    wall = perf_counter()
    min_ops = max(MIN_OPS, tally.digest_ops)
    if wl.round_s is None:
        def done(rounds, t):
            return t.measured_s() >= args.seconds and t.ops >= min_ops and rounds % wl.period == 0
    else:
        fixed = max(math.ceil(args.seconds / wl.round_s), math.ceil(min_ops / len(wl.rounds[0])))

        def done(rounds, t):
            return rounds >= fixed
    run_rounds(wl, tally, done)
    wall = perf_counter() - wall
    rss = peak_rss_mb(wl)
    setup, setup_scaled = measure_setup(args)
    raw = tally.latencies["untraced"]
    scaled = speed.scaled(raw)

    def timings(latencies, setup_s):
        ms = [t * 1000 for t in latencies]
        return {
            "ops_per_s": (len(ms) / sum(latencies), "1/s"),
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_p90_ms": (statistics.quantiles(ms, n=10)[-1], "ms"),
            "setup_s": (setup_s, "s"),
        }

    metrics = {**timings(scaled, setup_scaled), "peak_rss_mb": (rss, "MB")}
    n = tally.ops
    failed = tally.counts["wrong"] + tally.counts["error"]
    notes = [f"raw.{name} {value!r} {unit}" for name, (value, unit) in timings(raw, setup).items()] + [
        f"machine_scale {speed.scale!r} (median of {len(speed.samples)} reference samples)",
        f"op_samples {n} count (ops timed for {tally.measured_s():.3f} s of a {wall:.3f} s loop)",
        f"ops_failed_ratio {failed / n!r} ratio ({failed} of {n})",
    ]
    return tally, metrics, notes


def traced(wl, args):
    """2 * trace_rounds rounds, alternately untraced and traced.

    Interleaving keeps machine-speed drift out of trace.overhead_ratio; the
    per-layer metrics cover the traced rounds only, and the checks run with
    the tracer paused.
    """
    cli_samples: dict[str, list[float]] = {}
    log = SpanLog()
    tracer = Tracer()
    is_cli = isinstance(wl, CliCold)
    plain_command = getattr(wl, "command", None)

    def collect(op, proc):
        doc = wl.split_trace(proc.stderr.decode())[1] if proc is not None else None
        if doc is not None:
            log.add(doc)
            cli_samples.setdefault("import_s", []).append(doc["import_s"])
            cli_samples.setdefault("dispatch_s", []).append(doc["dispatch_s"])

    tally = Tally(wl, collect if is_cli else None, quiet=tracer.paused)

    def before_round(r):
        on = r % 2
        tally.bucket = "traced" if on else "untraced"
        if is_cli:
            wl.command = [sys.executable, str(HERE / "cli_probe.py")] if on else plain_command
        elif on:
            tracer.install()
        else:
            tracer.uninstall()

    if is_cli:
        cli_samples["interpreter_start_s"] = interpreter_start_samples(wl.env)
    try:
        run_rounds(wl, tally, lambda rounds, t: rounds >= 2 * wl.trace_rounds, before_round)
    finally:
        tracer.uninstall()
    log.add(tracer.export())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{wl.name}-seed{args.seed}.tsv.gz"
    log.write(span_file)
    overhead = tally.rate("traced") / tally.rate("untraced")
    metrics = per_layer_metrics(log.summary(), cli_samples, overhead)
    notes = [
        f"op_samples {len(tally.latencies['untraced'])} untraced"
        f" + {len(tally.latencies['traced'])} traced count",
        f"spans {len(log.names)} written to {span_file.relative_to(ROOT)}",
    ]
    return tally, metrics, notes


def run_one(args) -> int:
    entered = perf_counter()
    try:
        program = load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](program, args.seed, ROOT)
    wl.warm_up()
    if args.setup_probe:
        print(f"ready {perf_counter() - entered!r}", flush=True)
        return 0
    tally, metrics, notes = (traced if args.trace else untraced)(wl, args)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for line in notes:
        print(line)
    print(f"result_digest sha256:{tally.digest.hexdigest()} (first {min(tally.digest_ops, tally.ops)} ops)")
    failed = tally.counts["wrong"] + tally.counts["error"]
    print(json.dumps({
        "correct": tally.counts["wrong"] == 0,
        "attempted": tally.ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"perfbench: workload {name} failed with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=["all", *WORKLOADS], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
