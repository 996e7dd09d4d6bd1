"""One workload in one fresh process: set up, then measure or trace.

Started by run.py, never by hand; it prints one JSON line on stdout.

  --mode setup    set up (imports, inputs, warm-up) and report the time
  --mode measure  set up, then run whole rounds for --seconds with tracing off
  --mode trace    set up, then run a fixed op list untraced and traced

Set-up time runs from the parent's spawn (``PERFBENCH_T0``, a
``time.monotonic`` reading, which is system-wide) to the first timed op.

Timings are reported at a fixed reference host speed.  A small reference
task, independent of shiftspec, runs right after set-up and every
``REF_EVERY_S`` seconds of the timed loop (outside the timed intervals);
the host factor is the median reference time over ``REF_NOMINAL_S``.  Raw
timings divided by the factor (rates multiplied by it) do not follow the
host's speed swings; the raw values are reported next to them.

The factor is only sound while nothing of the program runs outside the
ops: a thread or a trace hook left behind would slow the reference as much
as the ops and be divided away.  Each reference sample checks for both,
and a timed loop's factor outside ``HOST_FACTOR_RANGE`` (about twice the
0.78-1.20 seen over 160 runs) is refused too; either makes the run
incorrect.  The factor taken right after set-up rests on ten samples
(20 ms) and swings more (0.79-1.83 over 60 processes); set-up time is a
median over nine processes, so that factor is not range-checked.
"""
import os
import sys
import time

T_START = time.monotonic()
import numpy  # noqa: E402,F401  (timed: numpy import)

T_NUMPY = time.monotonic()
import shiftspec  # noqa: E402,F401  (timed: shiftspec import)

T_IMPORT = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from collections import Counter  # noqa: E402

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# spans of the latest traced run of each workload (one file per CLI process)
SPANS_DIR = os.path.join(os.path.dirname(HERE), ".perfbench_spans")
CLI_CHILD = os.path.join(HERE, "cli_child.py")
CLI_TIMEOUT_S = 60
REF_NOMINAL_S = 0.002
REF_EVERY_S = 0.25
REF_AFTER_SETUP = 10
HOST_FACTOR_RANGE = (0.4, 2.5)


def reference(problems: set) -> float:
    """Seconds taken by a fixed piece of pure-Python and numpy work.

    Adds to ``problems`` what would make the sample follow the program
    rather than the host."""
    if threading.active_count() != 1:
        problems.add(f"{threading.active_count()} threads alive at a reference sample")
    if sys.gettrace() is not None or sys.getprofile() is not None:
        problems.add("a trace or profile hook installed at a reference sample")
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    a = numpy.arange(4096.0)
    for _ in range(20):
        a = numpy.sqrt(a * a + 1.0)
    return time.perf_counter() - t0


def host_factor(samples) -> float:
    return statistics.median(samples) / REF_NOMINAL_S


def check_host_factor(factor: float, problems: set) -> None:
    lo, hi = HOST_FACTOR_RANGE
    if not lo <= factor <= hi:
        problems.add(f"host factor {factor:.3f} outside [{lo}, {hi}]")


def startup_times() -> dict:
    t0 = float(os.environ["PERFBENCH_T0"])
    return {
        "cli.interp_s": T_START - t0,
        "cli.numpy_import_s": T_NUMPY - T_START,
        "cli.import_s": T_IMPORT - T_NUMPY,
    }


class Runner:
    """Executes ops; for the cli workload each op is one CLI process."""

    def __init__(self, tmp: str):
        self.tmp = tmp
        self.child_raw: list[dict] = []

    def cli(self, op, traced: bool, index: int):
        argv = list(op.desc["argv"])
        cmd_args = [argv[0], *op.args, *argv[1:]]
        svg_path = None
        if argv[0] == "plot":
            svg_path = os.path.join(self.tmp, "plot.svg")
            if os.path.exists(svg_path):
                os.remove(svg_path)
            cmd_args += ["--out", svg_path]
        env = None
        if traced:
            cmd = [sys.executable, CLI_CHILD, *cmd_args]
            trace_out = os.path.join(self.tmp, f"trace-{index}.json")
            env = dict(os.environ, PERFBENCH_TRACE_OUT=trace_out,
                       PERFBENCH_SPANS_OUT=os.path.join(SPANS_DIR, f"cli-op{index}.npz"),
                       PERFBENCH_T0=repr(time.monotonic()))
        else:
            cmd = [sys.executable, "-m", "shiftspec.cli", *cmd_args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env, timeout=CLI_TIMEOUT_S)
        dt = time.perf_counter() - t0
        svg = None
        if svg_path and os.path.exists(svg_path):
            with open(svg_path, "rb") as fh:
                svg = fh.read()
        if traced:
            with open(trace_out, encoding="utf-8") as fh:
                raw = json.load(fh)
            os.remove(trace_out)
            raw["cli.stdout_bytes"] = len(proc.stdout)
            self.child_raw.append(raw)
        result = {"code": proc.returncode, "stdout": proc.stdout, "svg": svg,
                  "stderr": proc.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]}
        return dt, result, None

    def execute(self, op, traced: bool = False, index: int = 0):
        if op.kind == "cli":
            return self.cli(op, traced, index)
        t0 = time.perf_counter()
        try:
            result, error = workloads.run_op(op), None
        except Exception as exc:  # every failure of the program is data here
            result, error = None, exc
        return time.perf_counter() - t0, result, error


class Tally:
    """Attempted, failed, verdict and failure-reason counts."""

    def __init__(self):
        self.attempted = self.failed = self.verdicts = self.decided = 0
        self.unexpected: Counter = Counter()
        self.known: Counter = Counter()

    def add(self, op, failure, decided) -> bool:
        self.attempted += 1
        if decided is not None:
            self.verdicts += 1
            self.decided += int(decided)
        if failure is None:
            return True
        self.failed += 1
        known = workloads.known_failure(op, failure)
        if known:
            self.known[known] += 1
        else:
            self.unexpected[f"{op.kind}: {failure}"[:200]] += 1
        return False

    def report(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": not self.unexpected,
            "decided_frac": self.decided / self.verdicts if self.verdicts else 0.0,
            "known_failures": dict(self.known),
            "unexpected_failures": dict(self.unexpected.most_common(10)),
        }


def check(op, result, error):
    failure, decided = checker.check(op, result, error)
    if failure is not None and op.kind == "cli" and result["stderr"]:
        failure += f" [{result['stderr'][0][:120]}]"
    return failure, decided


def set_up(workload: str, seed: int, runner: Runner):
    first = workloads.ROUNDS[workload](seed, 0)
    for op in workloads.warmup_ops(workload, seed):
        runner.execute(op)
    gc.collect()
    return first


def measure(workload, seed, seconds, first, runner, problems: set) -> dict:
    tally = Tally()
    op_ms, round_rates, refs = [], [], []
    rounds = 0
    ops = first
    start = time.perf_counter()
    next_ref = start
    while True:
        ok, busy = 0, 0.0
        for op in ops:
            dt, result, error = runner.execute(op)
            busy += dt
            op_ms.append(1e3 * dt)
            ok += tally.add(op, *check(op, result, error))
            if time.perf_counter() >= next_ref:
                refs.append(reference(problems))
                next_ref += REF_EVERY_S
        round_rates.append(ok / busy)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
        ops = workloads.ROUNDS[workload](seed, rounds)
    if workload == "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    host = host_factor(refs)
    check_host_factor(host, problems)
    raw = {"ok_per_s": statistics.median(round_rates),
           "op_ms_p50": statistics.median(op_ms),
           "op_ms_p90": statistics.quantiles(op_ms, n=10)[8]}
    out = tally.report()
    out.update(
        rounds=rounds,
        wall_s=time.perf_counter() - start,
        round_rate_quartiles=statistics.quantiles(round_rates, n=4) if rounds > 1 else round_rates,
        host_factor=host,
        reference_samples=len(refs),
        raw=raw,
        ok_per_s=raw["ok_per_s"] * host,
        op_ms_p50=raw["op_ms_p50"] / host,
        op_ms_p90=raw["op_ms_p90"] / host,
        peak_rss_mb=peak_kb / 1024.0,
    )
    return out


def trace(workload, seed, first, runner) -> dict:
    ops = list(first)
    for r in range(1, workloads.TRACE_ROUNDS[workload]):
        ops += workloads.ROUNDS[workload](seed, r)
    gc.collect()
    plain, plain_s = [], 0.0
    for op in ops:
        dt, result, error = runner.execute(op)
        plain_s += dt
        plain.append(checker.fingerprint(op, result, error))
    tracer = tracing.Tracer()
    tally = Tally()
    traced, traced_s = [], 0.0
    gc.collect()
    if workload != "cli":
        tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            dt, result, error = runner.execute(op, traced=True, index=i)
            traced_s += dt
            traced.append(checker.fingerprint(op, result, error))
            tally.add(op, *check(op, result, error))
    finally:
        tracer.uninstall()
    if workload != "cli":
        tracer.dump(os.path.join(SPANS_DIR, f"{workload}.npz"))
    raw = tracer.summarize()
    for child in runner.child_raw:
        tracing.add_raw(raw, child)
    metrics = tracing.finalize(raw, len(ops))
    if workload == "cli":
        n = max(1, len(runner.child_raw))
        start = {k: raw.get(k, 0.0) / n for k in ("cli.interp_s", "cli.numpy_import_s", "cli.import_s")}
    else:
        start = startup_times()
    for key, value in start.items():
        metrics[key[:-2] + "_ms"] = (1e3 * value, "ms")
    overhead = traced_s / plain_s - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    out = tally.report()
    out.update(
        per_layer=metrics,
        outputs_equal=plain == traced,
        untraced_s=plain_s,
        traced_s=traced_s,
        op_keys_digest=hashlib.sha1("\n".join(op.key() for op in ops).encode()).hexdigest(),
    )
    out["correct"] = out["correct"] and out["outputs_equal"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()
    runner = Runner(args.tmp)
    first = set_up(args.workload, args.seed, runner)
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_T0"])
    problems = set()
    setup_host = host_factor([reference(problems) for _ in range(REF_AFTER_SETUP)])
    out = {"setup_s": setup_s / setup_host, "setup_raw_s": setup_s, "startup": startup_times()}
    if args.mode == "measure":
        out.update(measure(args.workload, args.seed, args.seconds, first, runner, problems))
    elif args.mode == "trace":
        out.update(trace(args.workload, args.seed, first, runner))
    out["host_problems"] = sorted(problems)
    out["correct"] = out.get("correct", True) and not problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
