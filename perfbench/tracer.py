"""Span tracer installed from outside the program under test.

The tracer wraps a fixed list of public functions of each layer (module of
``src/nhmf``) and the arithmetic methods of the two value classes.  A wrapped
function is rebound under every name that refers to it in every loaded
``nhmf`` module, so calls made through ``from .generators import
level1_basis`` (in ``decompose``) or through the package re-exports (in the
benchmark) are seen as well.  Modules are found through ``sys.modules``,
because the function ``nhmf.decompose`` shadows the module of that name.

Each call records one span ``(name, start, end, parent)`` in memory.  Spans are
allocated on entry, so a parent always has a smaller index than its children,
and self time is a span's duration minus the durations of its direct children
(calls are strictly nested: one thread, no generators among the wrapped
functions).
"""

from __future__ import annotations

import gzip
import statistics
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Prefix of the stderr line on which a traced CLI child reports its spans.
TRACE_MARKER = "@@perfbench-trace@@ "

# Public functions traced per layer; a function is attributed to the module
# that defines it (``__module__``), so moving it between modules keeps it
# traced under its new layer name.  Small helpers called per coefficient
# (divisor_power_sum, padic_valuation, is_prime, ...) are left out: their
# time stays in the caller's self time and the tracer stays cheap.
FUNCTIONS = (
    "bernoulli",
    "eisenstein",
    "eisenstein2",
    "level1_basis",
    "delta_cusp",
    "theta_series",
    "raise_weight",
    "lower_weight",
    "casimir",
    "raise_analytic",
    "lower_analytic",
    "casimir_eigenvalue",
    "infinitesimal_character",
    "iterate_raise",
    "iterate_lower",
    "decompose",
    "character_split",
    "constant_term_report",
    "archimedean_factor",
    "zeta_ratio_at",
    "gamma_at",
    "prime_power_base",
    "unramified_intertwining_constant",
    "hilbert_symbol",
    "is_local_square",
    "local_invariants",
    "relevant_places",
    "collection_of",
    "check_coherence",
    "reducibility",
    "unramified_eigenvalue",
    "enumerate_definite_spaces",
    "catalog",
    "classify_block",
    "identify_module",
    "composition_factors",
)

# (module, class) -> {method: span suffix}
METHODS = {
    ("nhmf.series", "NearlyHolomorphicForm"): {
        "__mul__": "mul",
        "__rmul__": "mul",
        "__add__": "add",
    },
    ("nhmf.pi_scalar", "PiScalar"): {
        "__mul__": "mul",
        "__rmul__": "mul",
        "__add__": "add",
    },
}

# Spans whose inclusive time is reported; nested calls of the same name are
# counted once, at the outermost call.
INCLUSIVE = (
    "generators.level1_basis",
    "laurent.constant_term_report",
    "quadratic.check_coherence",
    "category_o.catalog",
    "category_o.classify_block",
)


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _nnz(form) -> int:
    """Number of stored terms of a form.

    Reads the size of the term dict when the form keeps one (no sorting, so
    the count costs little inside a traced run); any other storage falls back
    to the public terms().
    """
    coeffs = getattr(form, "_coeffs", None)
    return len(coeffs) if coeffs is not None else len(form.terms())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self.basis_keys: list[list[int]] = []
        self._stack = [-1]
        self._paused = [False]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, before=None):
        names, starts, ends, parents, stack, paused = (
            self.names,
            self.starts,
            self.ends,
            self.parents,
            self._stack,
            self._paused,
        )

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def paused(self):
        """Calls made inside the block run untraced: no spans, no counters."""
        self._paused[0] = True
        try:
            yield
        finally:
            self._paused[0] = False

    def _count_term_pairs(self, args):
        if len(args) == 2 and type(args[1]) is type(args[0]):
            self.counters["series.mul_term_pairs"] += _nnz(args[0]) * _nnz(args[1])

    def _record_basis_key(self, args):
        self.basis_keys.append(list(args[:2]))

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the traced functions and methods of every loaded nhmf module.

        Every module-level name bound to a traced function is rebound,
        including the re-exports of the ``nhmf`` package through which the
        benchmark calls the program.
        """
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "nhmf" or name.startswith("nhmf."))
        ]
        hooks = {"level1_basis": self._record_basis_key}
        for fname in FUNCTIONS:
            originals = {}
            for m in modules:
                fn = vars(m).get(fname)
                if callable(fn) and getattr(fn, "__module__", "").startswith("nhmf"):
                    originals[id(fn)] = fn
            for fn in originals.values():
                wrapper = self._wrap(f"{_layer(fn.__module__)}.{fname}", fn, hooks.get(fname))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._rebind(m, attr, fn, wrapper)
        for (mod_name, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            if cls is None:
                continue
            layer = _layer(mod_name)
            for meth, suffix in methods.items():
                fn = cls.__dict__.get(meth)
                if fn is None:
                    continue
                before = self._count_term_pairs if layer == "series" and suffix == "mul" else None
                self._rebind(cls, meth, fn, self._wrap(f"{layer}.{suffix}", fn, before))

    def _rebind(self, target, attr, old, new):
        setattr(target, attr, new)
        self._undo.append((target, attr, old))

    def uninstall(self):
        for target, attr, old in reversed(self._undo):
            setattr(target, attr, old)
        self._undo.clear()

    # -- export ------------------------------------------------------------

    def export(self) -> dict:
        """Raw spans and counters, JSON-serialisable (used across processes)."""
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "counters": dict(self.counters),
            "basis_keys": self.basis_keys,
        }


class SpanLog:
    """Spans gathered from one or more tracers, in a single index space."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: Counter = Counter()
        self.basis_keys: list[list[int]] = []

    def add(self, exported: dict):
        base = len(self.names)
        self.names.extend(exported["names"])
        self.starts.extend(exported["starts"])
        self.ends.extend(exported["ends"])
        self.parents.extend(p + base if p >= 0 else -1 for p in exported["parents"])
        self.counters.update(exported["counters"])
        self.basis_keys.extend(exported["basis_keys"])

    def write(self, path):
        """One span per line: name, start, end (seconds), parent index."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\tstart_s\tend_s\tparent\n")
            for i, name in enumerate(self.names):
                out.write(
                    f"{name}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\t{self.parents[i]}\n"
                )

    def summary(self) -> dict:
        """Per-span-name call counts, self time and inclusive time."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        # bit set of INCLUSIVE names among each span's ancestors
        bit = {name: 1 << i for i, name in enumerate(INCLUSIVE)}
        anc = [0] * n
        calls: Counter = Counter()
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        coherence_hilbert = 0
        for i in range(n):
            name = self.names[i]
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
                anc[i] = anc[p] | bit.get(self.names[p], 0)
            calls[name] += 1
            if name in bit and not anc[i] & bit[name]:
                incl_s[name] += dur[i]
            if name == "quadratic.hilbert_symbol" and anc[i] & bit["quadratic.check_coherence"]:
                coherence_hilbert += 1
        for i in range(n):
            self_s[self.names[i]] += dur[i] - child[i]
        seen = set()
        repeats = 0
        for key in self.basis_keys:
            key = tuple(key)
            repeats += key in seen
            seen.add(key)
        return {
            "calls": calls,
            "self_s": self_s,
            "incl_s": incl_s,
            "coherence_hilbert_calls": coherence_hilbert,
            "basis_repeat_ratio": repeats / len(self.basis_keys) if self.basis_keys else 0.0,
            "counters": self.counters,
        }


def per_layer_metrics(summary: dict, cli_samples: dict, overhead_ratio: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as name -> (value, unit)."""
    calls, self_s, incl_s = summary["calls"], summary["self_s"], summary["incl_s"]
    coherence_calls = calls["quadratic.check_coherence"]

    def median(key):
        values = cli_samples.get(key, [])
        return statistics.median(values) if values else 0.0

    return {
        "series.mul_calls": (calls["series.mul"], "count"),
        "series.mul_term_pairs": (summary["counters"]["series.mul_term_pairs"], "count"),
        "series.mul_self_s": (self_s["series.mul"], "s"),
        "series.add_self_s": (self_s["series.add"], "s"),
        "generators.level1_basis_calls": (calls["generators.level1_basis"], "count"),
        "generators.level1_basis_s": (incl_s["generators.level1_basis"], "s"),
        "generators.level1_basis_repeat_ratio": (summary["basis_repeat_ratio"], "ratio"),
        "generators.eisenstein_self_s": (self_s["generators.eisenstein"], "s"),
        "generators.bernoulli_self_s": (self_s["generators.bernoulli"], "s"),
        "operators.raise_calls": (calls["operators.raise_weight"], "count"),
        "operators.raise_self_s": (self_s["operators.raise_weight"], "s"),
        "operators.lower_self_s": (self_s["operators.lower_weight"], "s"),
        "operators.casimir_self_s": (self_s["operators.casimir"], "s"),
        "decompose.decompose_calls": (calls["decompose.decompose"], "count"),
        "decompose.decompose_self_s": (self_s["decompose.decompose"], "s"),
        "laurent.constant_term_report_s": (incl_s["laurent.constant_term_report"], "s"),
        "pi_scalar.mul_calls": (calls["pi_scalar.mul"], "count"),
        "pi_scalar.mul_self_s": (self_s["pi_scalar.mul"], "s"),
        "quadratic.hilbert_symbol_calls": (calls["quadratic.hilbert_symbol"], "count"),
        "quadratic.hilbert_symbol_self_s": (self_s["quadratic.hilbert_symbol"], "s"),
        "quadratic.relevant_places_self_s": (self_s["quadratic.relevant_places"], "s"),
        "quadratic.check_coherence_s": (incl_s["quadratic.check_coherence"], "s"),
        "quadratic.coherence_hilbert_calls": (
            summary["coherence_hilbert_calls"] / coherence_calls if coherence_calls else 0.0,
            "count",
        ),
        "category_o.catalog_s": (incl_s["category_o.catalog"], "s"),
        "category_o.classify_block_s": (incl_s["category_o.classify_block"], "s"),
        "cli.interpreter_start_s": (median("interpreter_start_s"), "s"),
        "cli.import_s": (median("import_s"), "s"),
        "cli.dispatch_s": (median("dispatch_s"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
