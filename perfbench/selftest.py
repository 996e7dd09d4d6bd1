"""Self-test of the benchmark itself (not of shiftspec).

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about a minute.  Checks:

1. the same seed gives the same op list, and two traced runs with the same
   seed give identical per-layer counts;
2. a traced run's outputs equal the untraced run's, every span's self time
   is non-negative and self times add up to the top-level spans, and the
   tracing overhead is reported;
3. the checker passes genuine results and flags a planted NaN, planted
   wrong verdicts and bad CLI output as failures;
4. a failure counts as known only for its documented cause: the same ops
   failing in any other way are unexpected;
5. a thread or a trace hook left running at a reference sample, or an
   implausible host factor, is reported.

Exits 1 if any check fails.
"""
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import checker  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from shiftspec.dynamics import TruncatedVector  # noqa: E402

FAILURES = []
# per-layer metrics that are counts of work, hence exactly repeatable
TIMING_FREE = ("count", "ratio")
NOT_COUNTS = ("trace.overhead_frac",)


def expect(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=300, check=True)
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_determinism_and_trace(seed: int = 5) -> None:
    for w, make in workloads.ROUNDS.items():
        a = [op.key() for r in range(2) for op in make(seed, r)]
        b = [op.key() for r in range(2) for op in make(seed, r)]
        c = [op.key() for op in workloads.warmup_ops(w, seed)]
        expect(a == b, f"{w}: same seed gives the same op list")
        expect(not set(c) & set(a), f"{w}: warm-up ops are disjoint from timed ops")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    for w in workloads.ROUNDS:
        (d1, r1), (d2, r2) = traced_run(w, seed), traced_run(w, seed)
        counts1 = {k: v["value"] for k, v in r1["metrics"].items()
                   if v["unit"] in TIMING_FREE and k not in NOT_COUNTS}
        counts2 = {k: v["value"] for k, v in r2["metrics"].items()
                   if v["unit"] in TIMING_FREE and k not in NOT_COUNTS}
        expect(d1["op_keys_digest"] == d2["op_keys_digest"], f"{w}: traced runs use the same ops")
        expect(counts1 == counts2, f"{w}: per-layer counts repeat exactly ({len(counts1)} metrics)")
        expect(d1["outputs_equal"] and d2["outputs_equal"], f"{w}: traced outputs equal untraced")
        expect(set(r1["metrics"]) == declared, f"{w}: traced run reports exactly the declared per-layer metrics")
        oh = r1["metrics"].get("trace.overhead_frac", {}).get("value")
        expect(oh is not None and math.isfinite(oh), f"{w}: tracing overhead reported ({oh:+.3f})")


def test_self_times(seed: int = 5) -> None:
    ops = workloads.ROUNDS["dynamics"](seed, 0)[:40] + workloads.ROUNDS["corpus"](seed, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.op_id = i
            try:
                workloads.run_op(op)
            except Exception:  # known seed failures still leave spans
                pass
    finally:
        tracer.uninstall()
    dur, self_t = tracer.self_times()
    roots = np.frombuffer(tracer.parent, dtype=np.int64) < 0
    expect(bool(np.all(self_t >= -1e-9)), f"self time >= 0 for all {len(dur)} spans")
    expect(abs(self_t.sum() - dur[roots].sum()) <= 1e-9 * len(dur) + 1e-12,
           "self times sum to the top-level span durations")


def _first(ops, kind, pred=lambda op: True):
    return next(op for op in ops if op.kind == kind and pred(op))


def test_checker(seed: int = 5) -> None:
    dyn = workloads.ROUNDS["dynamics"](seed, 0)
    op = _first(dyn, "solve_poly", lambda o: o.desc["n"] == 256 and o.desc["map"] == "mixed")
    x = workloads.run_op(op)
    expect(checker.check(op, x, None)[0] is None, "genuine solve passes")
    coords = x.coords.copy()
    coords[7] = np.nan
    bad = checker.check(op, TruncatedVector(coords, x.exact_prefix), None)[0]
    expect(bad is not None and "non-finite" in bad, f"planted NaN flagged ({bad})")
    coords = x.coords.copy()
    coords[3] += 1e-3
    bad = checker.check(op, TruncatedVector(coords, x.exact_prefix), None)[0]
    expect(bad is not None, f"planted wrong coordinate flagged ({bad})")

    thr = workloads.ROUNDS["threshold"](seed, 0)
    for side, wrong in ((-1, "JCLASS"), (+1, "NOT_JCLASS")):
        op = _first(thr, "decide_geometric", lambda o: o.desc["side"] == side
                    and o.desc["clearance"] > 3e-3)
        v = workloads.run_op(op)
        expect(checker.check(op, v, None)[0] is None, f"genuine {v.decision} passes")
        bad = checker.check(op, dataclasses.replace(v, decision=wrong), None)[0]
        expect(bad is not None, f"planted wrong verdict {wrong} flagged ({bad})")

    corpus = workloads.ROUNDS["corpus"](seed, 0)
    op = _first(corpus, "cross_check",
                lambda o: workloads.run_op(o).geometric.decision == "JCLASS")
    rep = workloads.run_op(op)
    expect(checker.check(op, rep, None)[0] is None, "genuine cross_check passes")
    a = rep.geometric.condition_a
    inflated = dataclasses.replace(a, lower_bound=a.min_sampled + 0.5)
    planted = dataclasses.replace(rep, geometric=dataclasses.replace(rep.geometric, condition_a=inflated))
    bad = checker.check(op, planted, None)[0]
    expect(bad is not None, f"planted unsound lower bound flagged ({bad})")
    planted = dataclasses.replace(rep, geometric=dataclasses.replace(rep.geometric, margin=math.nan))
    bad = checker.check(op, planted, None)[0]
    expect(bad is not None, f"planted NaN margin flagged ({bad})")

    cli = workloads.ROUNDS["cli"](seed, 0)
    op = _first(cli, "cli", lambda o: o.desc["argv"] == ["decide"] and o.desc["expected"] == "JCLASS")
    good = subprocess.run([sys.executable, "-m", "shiftspec.cli", "decide", op.args[0]],
                          stdout=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=sys.path[0]),
                          timeout=60)
    result = {"code": good.returncode, "stdout": good.stdout, "svg": None, "stderr": []}
    expect(checker.check(op, result, None)[0] is None, "genuine CLI decide passes")
    nan_out = good.stdout.replace(b'"margin": ', b'"margin": NaN, "x": ', 1)
    bad = checker.check(op, dict(result, stdout=nan_out), None)[0]
    expect(bad is not None, f"NaN on CLI stdout flagged ({bad})")
    bad = checker.check(op, dict(result, code=1), None)[0]
    expect(bad is not None, f"CLI exit code not matching the decision flagged ({bad})")
    bad = checker.check(op, dict(result, code=1, stdout=b""), None)[0]
    expect(bad is not None, f"CLI crash with exit 1 flagged ({bad})")


def _failure(op, result=None, error=None):
    return worker.check(op, result, error)[0]


def test_known_failures(seed: int = 5) -> None:
    known = workloads.known_failure
    dyn = workloads.ROUNDS["dynamics"](seed, 0)
    big = _first(dyn, "solve_poly", lambda o: o.desc["n"] == 4096 and o.desc["map"] == "id")
    try:
        x, err = workloads.run_op(big), None
    except Exception as exc:
        x, err = None, exc
    real = _failure(big, x, err)
    expect(real is not None and known(big, real) is not None,
           f"n = 4096 solve failing by overflow is known ({real})")
    wrong = TruncatedVector(np.ones(big.desc["n"], dtype=complex), big.args[1].exact_prefix)
    bad = _failure(big, wrong)
    expect(bad is not None and known(big, bad) is None,
           f"n = 4096 solve with wrong finite values is unexpected ({bad})")
    small = _first(dyn, "solve_poly", lambda o: o.desc["n"] == 256)
    expect(known(small, "3 non-finite coordinates") is None, "non-finite n = 256 solve is unexpected")

    wit = _first(dyn, "mixing_witness")
    try:
        workloads.run_op(wit)
        real = None
    except checker.PartialResult as exc:
        real = _failure(wit, None, exc)
    expect(real is not None and known(wit, real) is not None, f"witness NameError is known ({real})")
    for bad in ("stage 2: norm 3.0 above bound 1.0", "ZeroDivisionError: division by zero"):
        expect(known(wit, bad) is None, f"witness failing otherwise is unexpected ({bad})")

    cli = workloads.ROUNDS["cli"](seed, 0)
    sim = _first(cli, "cli", lambda o: o.desc["argv"] == ["simulate"] and o.desc["expected"] == "JCLASS")
    proc = subprocess.run([sys.executable, "-m", "shiftspec.cli", "simulate", sim.args[0]],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=dict(os.environ, PYTHONPATH=sys.path[0]), timeout=60)
    result = {"code": proc.returncode, "stdout": proc.stdout, "svg": None,
              "stderr": proc.stderr.decode().strip().splitlines()[-1:]}
    real = _failure(sim, result)
    expect(real is not None and known(sim, real) is not None, f"simulate NameError is known ({real})")
    bad = _failure(sim, dict(result, stderr=["MemoryError"]))
    expect(known(sim, bad) is None, f"simulate crashing otherwise is unexpected ({bad})")

    corpus = workloads.ROUNDS["corpus"](seed, 0)
    large = [op for op in corpus if workloads.large_root(op.desc["coeffs"])]
    expect(len(large) == 1, f"one large-root instance per corpus round ({len(large)})")
    for big in large:
        try:
            x, err = workloads.run_op(big), None
        except Exception as exc:
            x, err = None, exc
        real = _failure(big, x, err)
        expect(real is not None and known(big, real) is not None,
               f"RootRefinementError at a large root is known ({real})")
    ordinary = next(op for op in corpus if op not in large)
    msg = "RootRefinementError: root refinement residuals [1e-09] exceed 3e-10"
    expect(known(ordinary, msg) is None, "RootRefinementError on an ordinary instance is unexpected")


def test_host_checks() -> None:
    problems = set()
    worker.check_host_factor(worker.host_factor([worker.reference(problems) for _ in range(20)]),
                             problems)
    expect(not problems, f"no host problems in a clean process ({sorted(problems)})")
    stop = threading.Event()
    t = threading.Thread(target=stop.wait)
    t.start()
    try:
        worker.reference(problems)
    finally:
        stop.set()
        t.join()
    expect(any("threads" in p for p in problems), "a thread alive at a reference sample is reported")
    problems = set()
    sys.settrace(lambda *a: None)
    try:
        worker.reference(problems)
    finally:
        sys.settrace(None)
    expect(any("hook" in p for p in problems), "a trace hook at a reference sample is reported")
    problems = set()
    worker.check_host_factor(10.0, problems)
    expect(bool(problems), "an implausible host factor is reported")


def main() -> int:
    test_checker()
    test_known_failures()
    test_host_checks()
    test_self_times()
    test_determinism_and_trace()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
