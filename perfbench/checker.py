"""Correctness checker that does not trust the code it checks.

It recomputes everything it compares against from the benchmark's own
input descriptions: the weights and the radii (r1, r2, r3) from their
closed forms, polynomial values by its own Horner loop, roots by
``numpy.roots``, and the operator action f(B_w) x by explicit
coordinate shifts.  Only the program's outputs are read: verdicts as the
dictionaries ``to_dict`` / the CLI emit, vectors as coordinate arrays.

``check`` returns ``(failure, decided)``: ``failure`` is None for a
passing op and a one-line reason otherwise; ``decided`` is True or False
for ops that carry a verdict (False when the op failed before giving one)
and None for ops that carry none.
"""
from __future__ import annotations

import hashlib
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

EPS = float(np.finfo(float).eps)
EXIT_CODES = {"JCLASS": 0, "NOT_JCLASS": 1, "UNDECIDED": 2}
DECIDED = ("JCLASS", "NOT_JCLASS")


class PartialResult(Exception):
    """Raised by an op that obtained a verdict and then failed; the verdict
    still counts towards decided_frac."""

    def __init__(self, verdict):
        super().__init__("op failed after its decision")
        self.verdict = verdict


def digest_array(a) -> str:
    return hashlib.sha1(np.ascontiguousarray(a).tobytes()).hexdigest()


# -- independent math -------------------------------------------------------


def radii(spec: dict) -> tuple[float, float, float]:
    """(r1, r2, r3) of a weight description; only the tail matters."""
    t = spec["tail"]
    if t["kind"] == "constant":
        c = float(t["value"])
        return c, c, c
    if t["kind"] == "periodic":
        g = math.exp(sum(math.log(v) for v in t["values"]) / len(t["values"]))
        return g, g, g
    hi, lo = max(t["a"], t["b"]), min(t["a"], t["b"])
    return hi, lo, hi ** (1.0 / 3.0) * lo ** (2.0 / 3.0)


def weights_array(spec: dict, n: int) -> np.ndarray:
    """w_1 .. w_n."""
    pre = [float(v) for v in spec["prefix"]][:n]
    m = n - len(pre)
    t = spec["tail"]
    if t["kind"] == "constant":
        tail = np.full(m, float(t["value"]))
    elif t["kind"] == "periodic":
        vals = np.asarray(t["values"], dtype=float)
        tail = vals[np.arange(m) % len(vals)]
    else:
        # position j of the tail lies in block floor(log2 j); even blocks hold a
        block = np.frexp(np.arange(1, m + 1, dtype=float))[1] - 1
        tail = np.where(block % 2 == 0, float(t["a"]), float(t["b"]))
    return np.concatenate([np.asarray(pre, dtype=float), tail])


def horner(coeffs, z):
    out = np.zeros_like(np.asarray(z, dtype=complex))
    for a in reversed(list(coeffs)):
        out = out * z + complex(a)
    return out


def allowance(coeffs, radius: float) -> float:
    """Generous bound on float rounding in evaluating |f| on |z| <= radius."""
    mag = sum(abs(complex(a)) * radius**k for k, a in enumerate(coeffs))
    return 16.0 * (len(coeffs) + 2) * EPS * mag


def annulus_min(coeffs, inner: float, outer: float, n_r: int = 32, n_t: int = 512) -> float:
    """Minimum of |f| over a polar sample grid of the annulus."""
    rs = np.array([inner]) if outer == inner else np.linspace(inner, outer, n_r)
    theta = np.arange(n_t) * (2.0 * math.pi / n_t)
    z = (rs[:, None] * np.exp(1j * theta)[None, :]).ravel()
    return float(np.abs(horner(coeffs, z)).min())


def roots(coeffs) -> np.ndarray:
    c = [complex(a) for a in coeffs]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return np.roots(c[::-1])


def root_residual_floor(coeffs) -> float:
    """Bound on the float rounding of Horner's rule at f's largest root
    (2 d eps sum |a_k| |z|^k): residual that root polishing can be left
    with there, however well it converges."""
    z = float(np.abs(roots(coeffs)).max())
    mag = sum(abs(complex(a)) * z**k for k, a in enumerate(coeffs))
    return 2 * (len(coeffs) - 1) * EPS * mag


def apply_shift(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(B_w x)_k = w_k x_{k+1}; the last coordinate falls off the buffer."""
    out = np.zeros_like(x)
    out[:-1] = w[: len(x) - 1] * x[1:]
    return out


def apply_poly(coeffs, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = complex(coeffs[0]) * x
    cur = x
    for a in coeffs[1:]:
        cur = apply_shift(w, cur)
        out = out + complex(a) * cur
    return out


def _all_finite(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_all_finite(v) for v in obj)
    return True


def strict_json(data: bytes):
    """Parse JSON; NaN and +-Infinity are rejected (they are not JSON)."""

    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(data.decode("utf-8"), parse_constant=reject)


# -- verdicts ---------------------------------------------------------------


class _Dense:
    """Per-op cache of the dense annulus minimum (both routes share it)."""

    def __init__(self, coeffs, r_in, r_out):
        self.args = (coeffs, r_in, r_out)
        self.value = None

    def get(self) -> float:
        if self.value is None:
            self.value = annulus_min(*self.args)
        return self.value


def check_verdict(v: dict, spec: dict, coeffs, expected=None, dense=None) -> str | None:
    """Check one verdict dictionary against independent recomputation."""
    if not _all_finite(v):
        return "non-finite number in verdict"
    r1, r2, r3 = radii(spec)
    prof = v["profile"]
    for got, want, name in ((prof["r1"], r1, "r1"), (prof["r2"], r2, "r2"), (prof["r3"], r3, "r3")):
        if abs(got - want) > 1e-9 * max(1.0, want):
            return f"profile {name}={got} differs from closed form {want}"
    decision = v["decision"]
    if decision not in EXIT_CODES:
        return f"unknown decision {decision!r}"
    if expected is not None and decision in DECIDED and decision != expected:
        return f"decision {decision} on the wrong side (expected {expected})"
    tol = allowance(coeffs, r1)
    a, b, ker = v.get("conditionA"), v.get("conditionB"), v.get("kernel")
    dense = dense or _Dense(coeffs, r2, r1)
    if decision == "NOT_JCLASS":
        if a is not None and a["minSampled"] <= 1.0:
            wre, wim = a["witnessPoint"]
            wpt = complex(wre, wim)
            slack = 1e-12 * max(1.0, r1)
            if not (r2 - slack <= abs(wpt) <= r1 + slack):
                return f"violation witness {wpt} outside annulus [{r2}, {r1}]"
            fw = abs(complex(horner(coeffs, np.array([wpt]))[0]))
            if fw > 1.0 + tol:
                return f"violation witness has |f| = {fw} > 1"
            return None
        rts = roots(coeffs)
        if b is not None and b["covers"] is False:
            if np.any(np.abs(rts) < r2 * (1.0 - 1e-9)):
                return "winding 0 claimed but f has a root inside the disk of radius r2"
            return None
        if ker is not None and ker["status"] == "FALSE":
            if np.any(np.abs(rts) <= r1 * (1.0 + 1e-9)):
                return "root-free spectral disk claimed but f has a root in it"
            return None
        return "NOT_JCLASS without a certificate"
    if decision == "JCLASS":
        if a is None or a["status"] != "CERTIFIED" or not a["lowerBound"] > 1.0:
            return "JCLASS without a certified annulus bound above 1"
        if a["lowerBound"] > dense.get() + tol:
            return f"lower bound {a['lowerBound']} exceeds sampled minimum {dense.get()}"
        rts = roots(coeffs)
        if b is not None:
            if not (b["covers"] is True and b["winding"]["winding"] >= 1):
                return "JCLASS without coverage of the unit disk"
            if not np.any(np.abs(rts) < r2 * (1.0 + 1e-9)):
                return "coverage claimed but f has no root inside the disk of radius r2"
            return None
        if ker is not None and ker["status"] == "TRUE":
            if not np.any(np.abs(rts) < r3 * (1.0 + 1e-9)):
                return "eigenvalue 0 claimed but f has no root inside the disk of radius r3"
            return None
        return "JCLASS without a condition-B certificate"
    return None  # UNDECIDED claims nothing


def _decided(v: dict) -> bool:
    return v["decision"] in DECIDED


# -- dynamics ---------------------------------------------------------------


def _vector_failure(x, size) -> str | None:
    c = np.asarray(x.coords)
    if c.shape != (size,):
        return f"result has shape {c.shape}, expected ({size},)"
    if not np.all(np.isfinite(c)):
        return f"{int(np.count_nonzero(~np.isfinite(c)))} non-finite coordinates"
    return None


def check_solve(coeffs, spec, y, x) -> str | None:
    bad = _vector_failure(x, y.size)
    if bad:
        return bad
    deg = len(coeffs) - 1
    p = min(x.exact_prefix, y.exact_prefix + deg) - deg
    if p < 1:
        return "no exact prefix left to check"
    w = weights_array(spec, x.size)
    back = apply_poly(coeffs, w, np.asarray(x.coords))[:p]
    want = np.asarray(y.coords)[:p]
    r1 = radii(spec)[0]
    scale = max(float(np.abs(want).max()),
                sum(abs(complex(a)) * r1**k for k, a in enumerate(coeffs))
                * float(np.abs(np.asarray(x.coords)[: p + deg]).max()))
    err = float(np.abs(back - want).max())
    if not err <= 1e-8 * max(scale, 1e-300):
        return f"f(B) x differs from y by {err} on the exact prefix"
    return None


def check_preimage(spec, z, n0, x) -> str | None:
    bad = _vector_failure(x, z.size)
    if bad:
        return bad
    p = min(z.exact_prefix, z.size - n0)
    w = weights_array(spec, z.size)
    win = np.ones(p)
    for i in range(n0):
        win = win * w[i : i + p]
    back = win * np.asarray(x.coords)[n0 : n0 + p]
    want = np.asarray(z.coords)[:p]
    err = np.abs(back - want)
    if not np.all(err <= 1e-12 * np.abs(want) + 1e-300):
        return f"B^n0 x differs from z by up to {float(err.max())}"
    return None


def check_eigenvector(spec, lam, n, e) -> str | None:
    bad = _vector_failure(e, n)
    if bad:
        return bad
    c = np.asarray(e.coords)
    w = weights_array(spec, n)
    if abs(c[0] * w[0] - lam) > 1e-13 * abs(lam):
        return "eigenvector not normalized to e_1 = lambda / w_1"
    lhs = w[: n - 1] * c[1:]
    rhs = lam * c[: n - 1]
    if not np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(rhs) + 1e-300):
        return "w_k e_(k+1) != lambda e_k"
    return None


def check_witness(coeffs, spec, y, stages, verdict: dict, wit) -> str | None:
    bad = check_verdict(verdict, spec, coeffs)
    if bad:
        return bad
    if verdict["decision"] != "JCLASS":
        return f"witness operator decided {verdict['decision']}"
    if not wit.ok:
        return f"witness failed: {wit.failure}"
    if len(wit.stages) != stages:
        return f"{len(wit.stages)} stages instead of {stages}"
    w = weights_array(spec, y.size)
    ynorm = float(np.abs(np.asarray(y.coords)).max())
    deg = len(coeffs) - 1
    for s in wit.stages:
        bad = _vector_failure(s.x, y.size)
        if bad:
            return f"stage {s.index}: {bad}"
        if not (math.isfinite(s.norm) and s.norm <= s.norm_bound * (1.0 + 1e-9)):
            return f"stage {s.index}: norm {s.norm} above bound {s.norm_bound}"
        back = np.asarray(s.x.coords)
        for _ in range(wit.n0):
            back = apply_poly(coeffs, w, back)
        p = min(s.x.exact_prefix - wit.n0 * deg, s.z.exact_prefix)
        if p < 1:
            return f"stage {s.index}: no exact prefix left"
        err = float(np.abs(back[:p] - np.asarray(s.z.coords)[:p]).max())
        if not err <= 1e-6 * max(1.0, ynorm):
            return f"stage {s.index}: T^n0 x_m misses x_(m-1) by {err}"
    return None


# -- cli --------------------------------------------------------------------


def check_cli(desc: dict, code: int, stdout: bytes, svg: bytes | None):
    argv, expected, spec = desc["argv"], desc["expected"], desc["spec"]
    coeffs = [complex(re, im) for re, im in spec["map"]["coeffs"]]
    wspec = spec["weights"]
    cmd = argv[0]
    if cmd in ("plot",) or (cmd == "simulate" and expected != "JCLASS"):
        want = 0 if cmd == "plot" else 65
        if code != want:
            return f"exit {code}, expected {want}", None
        if stdout:
            return "unexpected output on stdout", None
        if cmd == "plot":
            if not svg:
                return "no SVG written", None
            try:
                root = ET.fromstring(svg)
            except ET.ParseError as exc:
                return f"SVG does not parse: {exc}", None
            if not root.tag.endswith("svg"):
                return f"SVG root element is {root.tag}", None
        return None, None
    decides = cmd == "decide"
    try:
        out = strict_json(stdout)
    except ValueError as exc:
        return f"stdout is not strict JSON (exit {code}): {exc}", False if decides else None
    if cmd == "analyze":
        if code != 0:
            return f"exit {code}, expected 0", None
        r1, r2, r3 = radii(wspec)
        prof = out["profile"]
        if max(abs(prof["r1"] - r1), abs(prof["r2"] - r2), abs(prof["r3"] - r3)) > 1e-9 * r1:
            return "analyze profile differs from closed form", None
        return None, None
    if cmd == "simulate":
        if code != 0:
            return f"exit {code}, expected 0", None
        if not (out.get("ok") is True and len(out["stages"]) == 5):
            return f"simulation not ok: {out.get('failure')}", None
        tn = out["targetNorm"]
        for s in out["stages"]:
            if not (s["norm"] <= s["normBound"] * (1.0 + 1e-9)
                    and s["roundTripResidual"] <= 1e-6 * max(1.0, tn)):
                return f"stage {s['m']} breaks its bound", None
        return None, None
    # decide
    if code != EXIT_CODES.get(out.get("decision"), -1):
        return f"exit {code} does not match decision {out.get('decision')}", False
    dense = _Dense(coeffs, radii(wspec)[1], radii(wspec)[0])
    bad = check_verdict(out, wspec, coeffs, expected, dense)
    if bad is None and "consistency" in out:
        cons = out["consistency"]
        if cons["consistent"] is not True:
            bad = f"routes inconsistent: {cons['detail']}"
        else:
            bad = check_verdict(cons["moduli"], wspec, coeffs, expected, dense)
    return bad, _decided(out)


# -- dispatch ---------------------------------------------------------------


def check(op, result, error):
    """(failure reason or None, decided or None) for one op."""
    d = op.desc
    if op.kind == "cli":
        return check_cli(d, result["code"], result["stdout"], result["svg"])
    if error is not None:
        decided = None
        if isinstance(error, PartialResult):
            decided = error.verdict.decision in DECIDED
            error = error.__cause__
        elif op.kind in ("cross_check", "decide_geometric", "mixing_witness"):
            decided = False
        return f"{type(error).__name__}: {error}", decided
    if op.kind == "cross_check":
        g, m = result.geometric.to_dict(), result.moduli.to_dict()
        dense = _Dense(d["coeffs"], radii(d["weights"])[1], radii(d["weights"])[0])
        bad = check_verdict(g, d["weights"], d["coeffs"], dense=dense) or check_verdict(
            m, d["weights"], d["coeffs"], dense=dense)
        if bad is None and not result.consistent:
            bad = f"routes inconsistent: {result.detail}"
        if bad is None and {g["decision"], m["decision"]} == set(DECIDED):
            bad = "certified contradiction between routes"
        return bad, _decided(g)
    if op.kind == "decide_geometric":
        v = result.to_dict()
        expected = "JCLASS" if d["side"] > 0 else "NOT_JCLASS"
        return check_verdict(v, d["weights"], d["coeffs"], expected), _decided(v)
    if op.kind == "solve_poly":
        return check_solve(d["coeffs"], d["weights"], op.args[1], result), None
    if op.kind == "preimage_power":
        return check_preimage(d["weights"], op.args[1], d["n0"], result), None
    if op.kind == "eigenvector":
        return check_eigenvector(d["weights"], d["lambda"], d["n"], result), None
    if op.kind == "mixing_witness":
        verdict, wit = result
        v = verdict.to_dict()
        return check_witness(d["coeffs"], d["weights"], op.args[1], op.args[2], v, wit), _decided(v)
    raise ValueError(f"no check for op kind {op.kind!r}")


def fingerprint(op, result, error) -> str:
    """Digest of an op's observable output, for traced-vs-untraced equality."""
    h = hashlib.sha1()
    if op.kind == "cli":
        h.update(str(result["code"]).encode())
        h.update(result["stdout"])
        h.update(result["svg"] or b"")
        return h.hexdigest()
    if error is not None:
        if isinstance(error, PartialResult):
            h.update(json.dumps(error.verdict.to_dict(), sort_keys=True).encode())
            error = error.__cause__
        h.update(f"{type(error).__name__}: {error}".encode())
        return h.hexdigest()
    if op.kind == "mixing_witness":
        verdict, wit = result
        h.update(json.dumps(verdict.to_dict(), sort_keys=True).encode())
        h.update(json.dumps(wit.to_dict(), sort_keys=True).encode())
    elif hasattr(result, "coords"):
        h.update(np.ascontiguousarray(result.coords).tobytes())
        h.update(str(result.exact_prefix).encode())
    else:
        h.update(json.dumps(result.to_dict(), sort_keys=True).encode())
    return h.hexdigest()
