"""shiftspec benchmark: four workloads, end-to-end metrics or per-layer traces.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  The last
line of stdout is the result object; the line before it holds the details
(machine, failures by cause, rounds, trace overhead).  See README.md.

This script only uses the standard library.  It pins the environment
(one BLAS/OpenMP thread, fixed hash seed) and runs each part of the work
in a fresh worker process: ``SETUP_PROBES`` extra processes that only set
up (set-up time is the median over them and the measuring process), then
one process that measures or traces.  Timings are reported at a fixed
reference host speed (see worker.py); the details line has the raw ones.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("corpus", "threshold", "dynamics", "cli")
SETUP_PROBES = 8
WORKER_TIMEOUT_S = 150
END_TO_END = {
    "ok_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "decided_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
    )
    return env


def spawn(env, args, tmp, mode: str) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--tmp", tmp]
    env = dict(env, PERFBENCH_T0=repr(time.monotonic()))
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker timed out after {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts');"
             "b = c['Build Dependencies']['blas'];"
             "print(json.dumps([numpy.__version__, b.get('name'), b.get('version')]))")
    out = subprocess.run([sys.executable, "-c", probe], env=environment(),
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=60)
    if out.returncode == 0:
        info["numpy"], blas, version = json.loads(out.stdout)
        info["blas"] = f"{blas} {version}"
    return info


def run(args) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(SRC, "shiftspec", "__init__.py")):
        raise BenchError(f"no shiftspec package under {SRC}; run from a source checkout")
    env = environment()
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.trace:
            res = spawn(env, args, tmp, "trace")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in res.pop("per_layer").items()}
            setups = [res["setup_s"]]
        else:
            probes = [spawn(env, args, tmp, "setup") for _ in range(SETUP_PROBES)]
            res = spawn(env, args, tmp, "measure")
            setups = [p["setup_s"] for p in probes] + [res["setup_s"]]
            res["host_problems"] = sorted({m for p in probes for m in p["host_problems"]}
                                          | set(res["host_problems"]))
            res["correct"] = res["correct"] and not res["host_problems"]
            res["setup_s"] = statistics.median(setups)
            res["raw"]["setup_s"] = statistics.median(
                [p["setup_raw_s"] for p in probes] + [res["setup_raw_s"]])
            metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    details = {"workload": args.workload, "seed": args.seed, "machine": machine(),
               "setup_samples_s": setups, **res}
    result = {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
              "failed": int(res["failed"]), "metrics": metrics}
    return details, result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        details, result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
