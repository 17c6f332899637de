"""Run one nhmf CLI command with the benchmark tracer installed.

    PYTHONPATH=src python3 perfbench/cli_probe.py <nhmf arguments>

Behaves like ``python -m nhmf.cli <arguments>`` (same stdout, stderr and exit
status) and adds one line to stderr: the trace marker followed by a JSON
document with the import time of ``nhmf.cli``, the time spent in
``nhmf.cli.main`` and the raw spans recorded meanwhile.
"""

import json
import sys
from time import perf_counter

from tracer import TRACE_MARKER, Tracer

t0 = perf_counter()
import nhmf.cli  # noqa: E402  (timed import)

t1 = perf_counter()
tracer = Tracer()
tracer.install()
t2 = perf_counter()
try:
    status = nhmf.cli.main(sys.argv[1:])
finally:
    doc = {"import_s": t1 - t0, "dispatch_s": perf_counter() - t2, **tracer.export()}
    sys.stderr.write(TRACE_MARKER + json.dumps(doc) + "\n")
sys.exit(status)
