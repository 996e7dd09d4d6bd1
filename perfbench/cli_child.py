"""Traced stand-in for ``python -m shiftspec.cli``.

Takes the CLI's own arguments, times interpreter start-up, the numpy import
and the shiftspec import, installs the tracer and calls ``shiftspec.cli.main``.
Stdout, stderr and the exit code are those of the plain CLI; the span
summary goes to the file named by ``PERFBENCH_TRACE_OUT``, the spans to
``PERFBENCH_SPANS_OUT``.
"""
import os
import sys
import time

T_START = time.monotonic()
import numpy  # noqa: E402,F401

T_NUMPY = time.monotonic()
import shiftspec.cli  # noqa: E402

T_IMPORT = time.monotonic()

import json  # noqa: E402

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
tracer.op_id = 0
try:
    code = shiftspec.cli.main(sys.argv[1:])
finally:
    sys.stdout.flush()
    tracer.uninstall()
    raw = tracer.summarize()
    raw.update({
        "cli.interp_s": T_START - float(os.environ["PERFBENCH_T0"]),
        "cli.numpy_import_s": T_NUMPY - T_START,
        "cli.import_s": T_IMPORT - T_NUMPY,
    })
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    tracer.dump(os.environ["PERFBENCH_SPANS_OUT"])
sys.exit(code)
