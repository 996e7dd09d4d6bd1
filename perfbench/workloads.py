"""Frozen, seeded op generators for the four benchmark workloads.

Every op stream is a sequence of rounds.  A round has a fixed composition
(the same op classes in the same numbers for every seed); the seed only
picks the inputs inside each class and the order within the round.  Fixed
composition keeps each reported percentile inside one op class, so it
cannot jump between two classes from one seed to the next.

Round r of workload W under seed s draws from its own stream
``default_rng([s, stream, r])``.  Timed rounds use stream 1, warm-up
rounds stream 2, so warm-up inputs never coincide with timed inputs.

The generators are copies, not imports: a later edit to the test suite's
generators cannot shift the benchmark's inputs.
"""
from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from shiftspec import dynamics, jclass
from shiftspec.dynamics import TruncatedVector
from shiftspec.holo import Polynomial
from shiftspec.spectra import OperatorSpec
from shiftspec.weights import WeightSequence

import checker

TIMED, WARMUP = 1, 2
HERE = os.path.dirname(os.path.abspath(__file__))
INSTANCE_DIR = os.path.join(HERE, "instances")


@dataclass
class Op:
    """One call into the program, with the inputs the checker needs.

    ``desc`` is a JSON-able description of the inputs (it identifies the op
    in the self-test's op-list comparison); ``args`` are the program objects
    built from it outside any timed region.
    """

    kind: str
    desc: dict
    args: tuple = ()

    def key(self) -> str:
        return json.dumps([self.kind, self.desc], sort_keys=True, default=_jsonable)


def _jsonable(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, np.ndarray):
        return checker.digest_array(v)
    raise TypeError(type(v))


def _rng(seed: int, stream: int, rnd: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, rnd])


def _poly(coeffs) -> Polynomial:
    return Polynomial(tuple(complex(c) for c in coeffs))


# -- corpus ---------------------------------------------------------------
# Random instances drawn like the test suite's generators: constant,
# periodic or doubling-block tails, prefix <= 2, weights in [0.6, 3],
# polynomial maps of degree 1-4 with coefficients in the square [-2, 2]^2.
# About 44% of the generator's draws have an annulus image that visibly
# meets the closed unit disk (cheap NOT_JCLASS decisions; 21,112 of 48,000
# draws over seeds 1-40), the rest need full certification plus winding.
# Each round holds that natural share, 21 of 48, so the mix of the two
# classes is the sweep's own and does not vary from round to round.
#
# A third class is the large-root defect (see KNOWN_FAILURES): a tiny
# leading coefficient puts a root so far out that Horner's rounding bound
# there exceeds the residual target of Polynomial.roots.  About 1 draw in
# 11,000 has such a root and 1 in 140,000 makes cross_check raise
# RootRefinementError (14 of 1,980,000 draws).  Left to chance, the defect
# would fail a different share of ops in every run.  So draws of this
# class never enter the random part of a round, and every round holds one
# of CORPUS_LARGE_ROOT instead: natural draws (from a stream no round
# uses) on which cross_check raises at the seed, with residuals 6-20 times
# the target.  Failed ops are then exactly 1 in 49 on every run.

CORPUS_VIOLATING, CORPUS_CLEAR = 21, 27
CORPUS_LARGE_ROOT = [
    {"prefix": [2.288802390817886, 2.4870763736013304],
     "tail": {"kind": "periodic", "values": [2.0986485413416323, 2.3689020926199285]},
     "coeffs": [(0.8938622079538034, -0.351737360012764),
                (-0.1613106291217945, 0.7145541223598708),
                (-0.06477370334527777, 1.7295332262086887),
                (-1.250702409194358, -1.4460676452117127),
                (0.002604151556353518, 0.0009211163378552989)]},
    {"prefix": [2.541804668110786],
     "tail": {"kind": "periodic",
              "values": [2.6034516151776588, 2.825933259533986, 1.9202963200207677]},
     "coeffs": [(-0.6365417537665428, 0.22318344525138345),
                (-0.08042591584621617, 0.863836681135949),
                (1.719986135904099, 0.580774560068483),
                (-1.3249980950916491, -0.4223598562077311),
                (-0.004129866480553357, -0.0034044557808017295)]},
    {"prefix": [],
     "tail": {"kind": "constant", "value": 2.809101855671395},
     "coeffs": [(-1.2342208148920397, -0.9440829921528504),
                (-0.594979303956293, 1.1818045712724667),
                (-0.30515168237325563, 0.942911196897859),
                (-1.7048758000683146, 0.7763344541860402),
                (0.004921688338066055, 0.006877203739668047)]},
]


def large_root(coeffs) -> bool:
    """Whether Horner's rounding at f's largest root can exceed the
    absolute residual target that Polynomial.roots polishes to."""
    target = 1e-10 * (1.0 + max(abs(complex(a)) for a in coeffs))
    return checker.root_residual_floor(coeffs) > target

def _random_weight_spec(rng, max_prefix=2, lo=0.6, hi=3.0) -> dict:
    kind = int(rng.integers(0, 3))
    prefix = [float(v) for v in rng.uniform(lo, hi, int(rng.integers(0, max_prefix + 1)))]
    if kind == 0:
        tail = {"kind": "constant", "value": float(rng.uniform(lo, hi))}
    elif kind == 1:
        period = int(rng.integers(1, 5))
        tail = {"kind": "periodic", "values": [float(v) for v in rng.uniform(lo, hi, period)]}
    else:
        tail = {"kind": "blocks", "a": float(rng.uniform(lo, hi)), "b": float(rng.uniform(lo, hi))}
    return {"prefix": prefix, "tail": tail}


def _random_coeffs(rng, max_degree=4, span=2.0) -> list[complex]:
    degree = int(rng.integers(1, max_degree + 1))
    pairs = rng.uniform(-span, span, (degree + 1, 2))
    return [complex(a, b) for a, b in pairs]


def corpus_round(seed: int, rnd: int, stream: int = TIMED) -> list[Op]:
    rng = _rng(seed, stream, rnd)
    violating, clear = [], []
    while len(violating) < CORPUS_VIOLATING or len(clear) < CORPUS_CLEAR:
        spec = _random_weight_spec(rng)
        coeffs = _random_coeffs(rng)
        if large_root(coeffs):
            continue
        r1, r2, _ = checker.radii(spec)
        bucket = violating if checker.annulus_min(coeffs, r2, r1, 8, 64) <= 1.0 else clear
        quota = CORPUS_VIOLATING if bucket is violating else CORPUS_CLEAR
        if len(bucket) < quota:
            bucket.append((spec, coeffs))
    big = CORPUS_LARGE_ROOT[int(rng.integers(len(CORPUS_LARGE_ROOT)))]
    large = [({"prefix": big["prefix"], "tail": big["tail"]},
              [complex(a, b) for a, b in big["coeffs"]])]
    ops = []
    for spec, coeffs in violating + clear + large:
        op = OperatorSpec(WeightSequence.from_dict(spec), _poly(coeffs))
        ops.append(Op("cross_check", {"weights": spec, "coeffs": coeffs}, (op,)))
    return [ops[i] for i in rng.permutation(len(ops))]


# -- threshold --------------------------------------------------------------
# decide_geometric at default budgets right at the J-class threshold.  For
# f = z^2 + 0.1 z and f = 1 + z^m the minimum of |f| over |z| >= r is
# reached on |z| = r and equals r (r - 0.1), respectively r^m - 1, so the
# radius giving min |f| = 1 +- c is known in closed form; both maps keep
# their roots inside the inner radius, so the true verdict is JCLASS above
# the threshold and NOT_JCLASS below it.  The seed rotates the map
# (z -> e^{i phi} z), multiplies it by a unimodular constant and jitters
# each clearance within +-0.1 decade; none of these moves the threshold.

THRESHOLD_MAPS = {
    "z2+0.1z": [0.0, 0.1, 1.0],
    "1+z": [1.0, 1.0],
    "1+z^2": [1.0, 0.0, 1.0],
    "1+z^3": [1.0, 0.0, 0.0, 1.0],
}
THRESHOLD_CLEARANCES = [10.0**-k for k in range(2, 10)]


def threshold_radius(name: str, min_modulus: float) -> float:
    """Radius r with min_{|z|=r} |f| = min_modulus."""
    if name == "z2+0.1z":
        return (0.1 + math.sqrt(0.01 + 4.0 * min_modulus)) / 2.0
    m = len(THRESHOLD_MAPS[name]) - 1
    return (1.0 + min_modulus) ** (1.0 / m)


def threshold_round(seed: int, rnd: int, stream: int = TIMED) -> list[Op]:
    rng = _rng(seed, stream, rnd)
    ops = []
    for name, base in THRESHOLD_MAPS.items():
        for geometry in ("circle", "annulus"):
            for c_nominal in THRESHOLD_CLEARANCES:
                for side in (+1, -1):
                    clearance = c_nominal * 10.0 ** rng.uniform(-0.1, 0.1)
                    phi, psi = rng.uniform(0.0, 2.0 * math.pi, 2)
                    coeffs = [a * complex(math.cos(psi + k * phi), math.sin(psi + k * phi))
                              for k, a in enumerate(base)]
                    r = threshold_radius(name, 1.0 + side * clearance)
                    if geometry == "circle":
                        spec = {"prefix": [], "tail": {"kind": "constant", "value": r}}
                    else:
                        spec = {"prefix": [], "tail": {"kind": "blocks", "a": 1.5 * r, "b": r}}
                    op = OperatorSpec(WeightSequence.from_dict(spec), _poly(coeffs))
                    desc = {"weights": spec, "coeffs": coeffs, "map": name,
                            "side": side, "clearance": clearance}
                    ops.append(Op("decide_geometric", desc, (op,)))
    return [ops[i] for i in rng.permutation(len(ops))]


# -- dynamics -------------------------------------------------------------
# Nine fixed operators (3 weight sequences x 3 maps) drive many calls, as
# they do inside mixing_witness.  The identity map solves by preimage_power,
# z^2 + 0.1 z has inner roots only, (z - 0.5)(z - 9) has one inner and one
# outer root.  Every weight exceeds 1, so at n >= 4096 the plain float
# window products overflow: those solves are known to fail at the seed, as
# is every mixing_witness.  The n = 65536 solves skip the outer-root map:
# its resolvent loop runs about 0.7 s before it overflows, twice a whole
# round's other work, so ok_per_s would measure little else.

DYN_WEIGHTS = {
    "const2": {"prefix": [], "tail": {"kind": "constant", "value": 2.0}},
    "per3": {"prefix": [], "tail": {"kind": "periodic", "values": [3.0, 1.5, 2.0]}},
    "blocks32": {"prefix": [], "tail": {"kind": "blocks", "a": 3.0, "b": 2.0}},
}
DYN_MAPS = {
    "id": [0.0, 1.0],
    "inner": [0.0, 0.1, 1.0],
    "mixed": [4.5, -9.5, 1.0],
}
# (kind, n, maps, copies per weight (and per map for solve_poly))
DYN_ROUND = [
    ("solve_poly", 256, ("id",), 4),
    ("solve_poly", 256, ("inner", "mixed"), 8),
    ("preimage_power", 256, None, 4),
    ("eigenvector", 256, None, 4),
    ("mixing_witness", 256, ("id", "inner", "mixed"), 1),
    ("solve_poly", 4096, ("id", "inner", "mixed"), 1),
    ("preimage_power", 4096, None, 1),
    ("solve_poly", 65536, ("id", "inner"), 1),
    ("preimage_power", 65536, None, 1),
]
WITNESS_STAGES = 5
OVERFLOW_N = 4096


def _vector(rng, n: int) -> TruncatedVector:
    return TruncatedVector(rng.standard_normal(n) + 1j * rng.standard_normal(n), n)


def dynamics_round(seed: int, rnd: int, stream: int = TIMED) -> list[Op]:
    rng = _rng(seed, stream, rnd)
    ws = {name: WeightSequence.from_dict(spec) for name, spec in DYN_WEIGHTS.items()}
    ops = []
    for kind, n, maps, copies in DYN_ROUND:
        for wname, spec in DYN_WEIGHTS.items():
            w = ws[wname]
            for mname in maps or (None,):
                for _ in range(copies):
                    desc = {"weights": spec, "n": n, "wname": wname}
                    if kind in ("solve_poly", "mixing_witness"):
                        coeffs = DYN_MAPS[mname]
                        desc.update(map=mname, coeffs=coeffs)
                        y = _vector(rng, n)
                        args = (OperatorSpec(w, _poly(coeffs)), y)
                        if kind == "mixing_witness":
                            args += (WITNESS_STAGES,)
                    elif kind == "preimage_power":
                        n0 = int(rng.integers(1, 9))
                        desc["n0"] = n0
                        y = _vector(rng, n)
                        args = (w, y, n0)
                    else:
                        r3 = checker.radii(spec)[2]
                        lam = complex(np.exp(1j * rng.uniform(0, 2 * math.pi))
                                      * rng.uniform(0.2, 0.9) * r3)
                        desc["lambda"] = lam
                        args = (w, lam, n)
                    if kind != "eigenvector":
                        desc["y"] = y.coords
                    ops.append(Op(kind, desc, args))
    return [ops[i] for i in rng.permutation(len(ops))]


# -- cli --------------------------------------------------------------------
# `python -m shiftspec.cli` processes, one after another, on frozen copies of
# the repository's instance files.  The expected decisions are fixed: the
# identity on constant weight 2 and 1 + z^2 on constant weight 1.5 are
# JCLASS; the identity on doubling blocks (2, 1) touches the unit circle on
# |z| = 1, so it is NOT_JCLASS and `simulate` must refuse it (exit 65).

CLI_INSTANCES = {
    "doubling_shift.json": "JCLASS",
    "shifted_square.json": "JCLASS",
    "block_annulus.json": "NOT_JCLASS",
}
CLI_COMMANDS = [
    ("analyze",),
    ("decide",),
    ("decide", "--route", "both"),
    ("plot",),
    ("simulate",),
]


def cli_round(seed: int, rnd: int, stream: int = TIMED) -> list[Op]:
    rng = _rng(seed, stream, rnd)
    ops = []
    for fname, expected in CLI_INSTANCES.items():
        path = os.path.join(INSTANCE_DIR, fname)
        with open(path, encoding="utf-8") as fh:
            instance = json.load(fh)
        for cmd in CLI_COMMANDS:
            desc = {"instance": fname, "argv": list(cmd), "expected": expected,
                    "spec": instance}
            ops.append(Op("cli", desc, (path,)))
    return [ops[i] for i in rng.permutation(len(ops))]


ROUNDS = {
    "corpus": corpus_round,
    "threshold": threshold_round,
    "dynamics": dynamics_round,
    "cli": cli_round,
}
# rounds in one traced run: enough ops for stable per-op counts, while the
# untraced plus traced passes stay within a few seconds (cli: about 12 s)
TRACE_ROUNDS = {"corpus": 6, "threshold": 1, "dynamics": 1, "cli": 1}


def warmup_ops(workload: str, seed: int) -> list[Op]:
    """A cheap, fixed-cost part of a warm-up round (drawn from a stream
    disjoint from the timed rounds), so set-up time does not depend on the
    seed.  The CLI has only 15 distinct ops, all timed, so its warm-up is
    one `--help` process: every import and argparse, but no timed op."""
    if workload == "cli":
        return [Op("cli", {"argv": ["--help"]})]
    ops = ROUNDS[workload](seed, 0, WARMUP)
    if workload == "threshold":
        return [op for op in ops if op.desc["clearance"] > 3e-4]
    if workload == "dynamics":
        # a witness's cost depends on its target through the n0 search
        return [op for op in ops if op.desc["n"] <= 256 and op.kind != "mixing_witness"]
    return ops


# Failures known at the seed: (cause, op kinds, the failure reason as a
# regular expression, the inputs the cause applies to).  A failure counts
# as known only when all three match; any other failure of the same op is
# unexpected, so a known-failing op still guards everything else it does.
_CALIBRATION = r"NameError: name '_CALIBRATION_STAGES' is not defined"
KNOWN_FAILURES = [
    ("mixing_witness: _CALIBRATION_STAGES undefined",
     ("mixing_witness",), _CALIBRATION, lambda d: True),
    ("window products overflow at n >= 4096 with weights > 1",
     ("solve_poly", "preimage_power"), r"\d+ non-finite coordinates|OverflowError: .*",
     lambda d: d["n"] >= OVERFLOW_N and min(checker.weights_array(d["weights"], 64)) > 1.0),
    ("simulate: mixing_witness _CALIBRATION_STAGES undefined",
     ("cli",), r"stdout is not strict JSON \(exit 1\): .* \[" + _CALIBRATION + r"\]",
     lambda d: d["argv"][0] == "simulate" and d["expected"] == "JCLASS"),
    # Polynomial.roots polishes every root to an absolute residual target,
    # which float evaluation cannot reach at a large root (a tiny leading
    # coefficient): one corpus op per round, see CORPUS_LARGE_ROOT.
    ("cross_check: root polishing cannot reach its absolute residual target",
     ("cross_check",), r"RootRefinementError: .*", lambda d: large_root(d["coeffs"])),
]


def known_failure(op: Op, failure: str) -> str | None:
    """The documented cause of a failure known at the seed, else None."""
    for cause, kinds, pattern, applies in KNOWN_FAILURES:
        if op.kind in kinds and re.fullmatch(pattern, failure) and applies(op.desc):
            return cause
    return None


def run_op(op: Op):
    """Call the program.  Functions are looked up at call time, so the
    tracer's wrappers (installed into the module namespaces) take effect."""
    kind = op.kind
    if kind == "cross_check":
        return jclass.cross_check(*op.args)
    if kind == "decide_geometric":
        return jclass.decide_geometric(*op.args)
    if kind == "mixing_witness":
        spec, y, stages = op.args
        verdict = jclass.decide_geometric(spec)
        try:
            return verdict, dynamics.mixing_witness(spec, y, stages, verdict=verdict)
        except Exception as exc:
            raise checker.PartialResult(verdict) from exc
    return getattr(dynamics, kind)(*op.args)
