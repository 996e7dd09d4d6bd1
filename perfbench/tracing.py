"""Layer tracing from outside the program.

``Tracer.install`` wraps, from the benchmark's own code, every public
function in the ``__all__`` of the layer modules (in every ``shiftspec``
namespace that imported it) and a few hot methods.  Each call records a
span: name, start, end, parent span, op id, and one integer taken from
the arguments or the result (points evaluated, vector length, status).
Spans are kept in flat arrays in memory and summarized when the traced
pass has ended.

The program has no queues, threads or processes of its own, so no span
ever waits: the per-layer metrics are work counts and busy times only.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("weights", "holo", "spectra", "jclass", "dynamics", "cli")
METHODS = (
    ("weights", "WeightSequence", "value"),
    ("weights", "WeightSequence", "values_array"),
    ("holo", "Polynomial", "eval"),
    ("holo", "Polynomial", "roots"),
    ("holo", "Series", "eval"),
    ("spectra", "OperatorSpec", "profile"),
    ("spectra", "OperatorSpec", "check_validity"),
)
PROFILE_REQUESTS = ("weights.spectral_profile", "spectra.OperatorSpec.profile",
                    "spectra.OperatorSpec.check_validity")
EVALS = ("holo.Polynomial.eval", "holo.Series.eval")
SOLVES = ("dynamics.solve_poly", "dynamics.preimage_power")
SOLVE_SIZES = (256, 4096, 65536)


def _arg(pos: int, name: str):
    def get(args, kwargs):
        return args[pos] if len(args) > pos else kwargs[name]
    return get


def _size(pos: int, name: str):
    get = _arg(pos, name)
    return lambda args, kwargs: get(args, kwargs).size


def _nonfinite(result) -> int:
    coords = getattr(result, "coords", None)
    return int(coords is not None and not bool(np.isfinite(coords).all()))


# integer recorded per span, from the call's arguments
ARG_OF = {
    "holo.Polynomial.eval": lambda a, k: int(np.size(a[1] if len(a) > 1 else k["z"])),
    "holo.Series.eval": lambda a, k: int(np.size(a[1] if len(a) > 1 else k["z"])),
    "weights.WeightSequence.values_array": _arg(1, "n"),
    "dynamics.solve_poly": _size(1, "y"),
    "dynamics.preimage_power": _size(1, "z"),
    "dynamics.solve_factor_inner": _size(2, "y"),
    "dynamics.eigenvector": _arg(2, "n"),
    "dynamics.mixing_witness": _arg(2, "m_max"),
}
# integer recorded per span, from the call's result
RESULT_OF = {
    "holo.min_modulus_on_annulus": lambda r: int(r.status == "CERTIFIED"),
    "holo.winding_number": lambda r: 2 * r.samples + int(r.valid),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.arg = array("q")
        self.res = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self._undo: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        stack, name_of, parent, op = self.stack, self.name_of, self.parent, self.op
        argv, res, t0s, t1s = self.arg, self.res, self.t0, self.t1
        arg_of = ARG_OF.get(name)
        res_of = RESULT_OF.get(name)
        if res_of is None and name.startswith("dynamics."):
            res_of = _nonfinite
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(name_of)
            name_of.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            argv.append(arg_of(args, kwargs) if arg_of else 0)
            res.append(0)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                t0s[sid] = t0
                t1s[sid] = t1
            if res_of:
                res[sid] = res_of(out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the layer functions and methods in every loaded namespace."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"shiftspec.{layer}")
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj not in originals:
                    originals[obj] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "shiftspec" or n.startswith("shiftspec.")]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in originals:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, originals[val])
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"shiftspec.{layer}"), cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._undo):
            setattr(owner, attr, val)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        n = len(self.name_of)
        out = {"n": n}
        for key, dtype in (("name_of", np.int32), ("parent", np.int64), ("op", np.int64),
                           ("arg", np.int64), ("res", np.int64), ("t0", float), ("t1", float)):
            out[key] = np.frombuffer(getattr(self, key), dtype=dtype) if n else np.zeros(0, dtype)
        out["name"] = out.pop("name_of")
        out["dur"] = out["t1"] - out["t0"]
        return out

    def dump(self, path: str) -> None:
        """Write every span (name index, parent, op id, start, end and the
        recorded argument/result integers) and the name table to ``path``."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        a = self.arrays()
        del a["n"], a["dur"]
        np.savez_compressed(path, names=np.array(self.names, dtype=str), **a)

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(span duration, span self time), both in seconds."""
        a = self.arrays()
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=a["dur"][has_parent],
                            minlength=a["n"])
        return a["dur"], a["dur"] - child

    def summarize(self) -> dict:
        """Raw totals over all spans; ``finalize`` turns them into metrics."""
        a = self.arrays()
        n, name, parent, arg, res = a["n"], a["name"], a["parent"], a["arg"], a["res"]
        dur, self_t = self.self_times()
        ids = {nm: i for i, nm in enumerate(self.names)}

        def mask(*names):
            want = [ids[nm] for nm in names if nm in ids]
            return np.isin(name, want)

        layer_of = np.array([nm.split(".")[0] for nm in self.names] or ["-"])
        layer = layer_of[name] if n else np.zeros(0, dtype=str)

        def under(m):
            """True where some proper ancestor matches m."""
            out = [False] * n
            par = parent.tolist()
            ml = m.tolist()
            for s in range(n):
                p = par[s]
                if p >= 0:
                    out[s] = out[p] or ml[p]
            return np.array(out, dtype=bool)

        prof = mask(*PROFILE_REQUESTS)
        evals = mask(*EVALS)
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        grid = mask("holo.min_modulus_on_annulus")
        wind = mask("holo.winding_number")
        solves = mask(*SOLVES)
        top_solves = solves & ~under(solves)
        in_witness = under(mask("dynamics.mixing_witness"))
        dyn = layer == "dynamics"
        evals_per_span = np.bincount(parent[evals & (parent >= 0)], minlength=n)

        raw = {
            "spans": n,
            "weights.profile_calls": int((prof & ~under(prof)).sum()),
            "weights.value_calls": int(mask("weights.WeightSequence.value").sum()),
            "weights.coords_materialized": int(arg[mask("weights.WeightSequence.values_array")].sum()),
            "holo.grid_evals": int(arg[evals & (parent_name == ids.get("holo.min_modulus_on_annulus", -2))].sum()),
            "holo.grid_s": float(dur[grid].sum()),
            "holo.grid_calls": int(grid.sum()),
            "holo.grid_certified": int(res[grid].sum()),
            "holo.winding_samples": int((res[wind] >> 1).sum()),
            "holo.winding_s": float(dur[wind].sum()),
            "holo.winding_calls": int(wind.sum()),
            "holo.winding_first_try": int(((evals_per_span[wind] == 1) & ((res[wind] & 1) == 1)).sum()),
            "holo.roots_calls": int(mask("holo.Polynomial.roots").sum()),
            "holo.roots_s": float(dur[mask("holo.Polynomial.roots")].sum()),
            "holo.eval_calls": int(evals.sum()),
            "spectra.i_of_adjoint_calls": int(mask("spectra.i_of_adjoint").sum()),
            "spectra.kernel_s": float(dur[mask("spectra.kernel_nontrivial")].sum()),
            "jclass.decide_calls": int(mask("jclass.decide_geometric", "jclass.decide_moduli").sum()),
            "dynamics.inner_steps": int(np.maximum(arg[mask("dynamics.solve_factor_inner")] - 1, 0).sum()),
            "dynamics.resolvent_terms": int((mask("dynamics.shift_power")
                                             & (parent_name == ids.get("dynamics.solve_factor_outer", -2))).sum()),
            "dynamics.eigenvector_s": float(dur[mask("dynamics.eigenvector")].sum()),
            "dynamics.witness_solves": int((top_solves & in_witness).sum()),
            "dynamics.witness_stages": int(arg[mask("dynamics.mixing_witness")].sum()),
            "dynamics.nonfinite_results": int(res[dyn & ~under(dyn)].sum()),
            "cli.work_s": float(dur[mask("cli.main")].sum()),
        }
        for lay in LAYERS[:-1]:
            raw[f"{lay}.self_s"] = float(self_t[layer == lay].sum())
        for size in SOLVE_SIZES:
            raw[f"dynamics.solve_s.n{size}"] = float(dur[top_solves & (arg == size)].sum())
        return raw


def add_raw(total: dict, raw: dict) -> None:
    for k, v in raw.items():
        total[k] = total.get(k, 0) + v


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def finalize(raw: dict, ops: int) -> dict:
    """Per-layer metrics: counts and milliseconds per op, plus ratios."""
    per_op = lambda key: _ratio(raw.get(key, 0), ops)  # noqa: E731
    ms = lambda key: 1e3 * per_op(key)  # noqa: E731
    out = {
        "weights.profile_calls": (per_op("weights.profile_calls"), "count"),
        "weights.self_ms": (ms("weights.self_s"), "ms"),
        "weights.value_calls": (per_op("weights.value_calls"), "count"),
        "weights.coords_materialized": (per_op("weights.coords_materialized"), "count"),
        "holo.grid_evals": (per_op("holo.grid_evals"), "count"),
        "holo.grid_ms": (ms("holo.grid_s"), "ms"),
        "holo.grid_certified_frac": (_ratio(raw.get("holo.grid_certified", 0),
                                            raw.get("holo.grid_calls", 0)), "ratio"),
        "holo.winding_samples": (per_op("holo.winding_samples"), "count"),
        "holo.winding_ms": (ms("holo.winding_s"), "ms"),
        "holo.winding_first_try_frac": (_ratio(raw.get("holo.winding_first_try", 0),
                                               raw.get("holo.winding_calls", 0)), "ratio"),
        "holo.roots_calls": (per_op("holo.roots_calls"), "count"),
        "holo.roots_ms": (ms("holo.roots_s"), "ms"),
        "holo.eval_calls": (per_op("holo.eval_calls"), "count"),
        "holo.self_ms": (ms("holo.self_s"), "ms"),
        "spectra.i_of_adjoint_calls": (per_op("spectra.i_of_adjoint_calls"), "count"),
        "spectra.kernel_ms": (ms("spectra.kernel_s"), "ms"),
        "spectra.self_ms": (ms("spectra.self_s"), "ms"),
        "jclass.decide_calls": (per_op("jclass.decide_calls"), "count"),
        "jclass.self_ms": (ms("jclass.self_s"), "ms"),
        "dynamics.inner_steps": (per_op("dynamics.inner_steps"), "count"),
        "dynamics.resolvent_terms": (per_op("dynamics.resolvent_terms"), "count"),
        "dynamics.eigenvector_ms": (ms("dynamics.eigenvector_s"), "ms"),
        "dynamics.witness_solves_per_stage": (_ratio(raw.get("dynamics.witness_solves", 0),
                                                     raw.get("dynamics.witness_stages", 0)), "ratio"),
        "dynamics.nonfinite_results": (per_op("dynamics.nonfinite_results"), "count"),
        "dynamics.self_ms": (ms("dynamics.self_s"), "ms"),
        "cli.work_ms": (ms("cli.work_s"), "ms"),
        "cli.stdout_bytes": (per_op("cli.stdout_bytes"), "count"),
        "trace.spans_per_op": (per_op("spans"), "count"),
    }
    for size in SOLVE_SIZES:
        out[f"dynamics.solve_ms.n{size}"] = (ms(f"dynamics.solve_s.n{size}"), "ms")
    return out
