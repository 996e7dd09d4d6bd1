import cmath
import math

import numpy as np
import pytest

from shiftspec.holo import Polynomial, Series
from shiftspec.jclass import decide_geometric
from shiftspec.spectra import OperatorSpec
from shiftspec.weights import WeightSequence


def random_weights(rng, max_prefix=2, lo=0.6, hi=3.0):
    kind = int(rng.integers(0, 3))
    prefix = tuple(rng.uniform(lo, hi, int(rng.integers(0, max_prefix + 1))))
    if kind == 0:
        return WeightSequence.constant(rng.uniform(lo, hi), prefix)
    if kind == 1:
        period = int(rng.integers(1, 5))
        return WeightSequence.periodic(rng.uniform(lo, hi, period), prefix)
    return WeightSequence.doubling_blocks(rng.uniform(lo, hi), rng.uniform(lo, hi), prefix)


def random_poly(rng, max_degree=4, span=2.0):
    degree = int(rng.integers(1, max_degree + 1))
    coeffs = rng.uniform(-span, span, (degree + 1, 2))
    return Polynomial(tuple(complex(a, b) for a, b in coeffs))


def random_series(rng, radius, max_degree=4, span=2.0):
    """A series map evaluable past ``radius``: a random_poly stored part, a
    tail |a_n| <= B q^n with B <= 0.05, and a validity radius 1.1 to 2
    times ``radius``."""
    validity = radius * rng.uniform(1.1, 2.0)
    return Series(random_poly(rng, max_degree, span).coeffs, rng.uniform(0.0, 0.05),
                  rng.uniform(0.3, 1.0) / validity, validity)


def random_instance(rng, **kw):
    return OperatorSpec(random_weights(rng), random_poly(rng, **kw))


def inner_transient_instance(rng):
    """a (z - zeta) on 1 to 6 prefix weights 10^U(-3, -1) and a constant
    tail t = U(1.5, 3), with zeta = U(0.5, 0.995) t e^{i theta} and
    a = 2 / (t - |zeta|): min |f| = 2 on the circle |z| = t, so it is JCLASS,
    and its solves run a transient of up to about (|zeta| / min w)^6 through
    the prefix."""
    k = int(rng.integers(1, 7))
    prefix = tuple(10.0 ** rng.uniform(-3, -1, k))
    tail = rng.uniform(1.5, 3)
    zeta = rng.uniform(0.5, 0.995) * tail * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    a = 2 / (tail - abs(zeta))
    return OperatorSpec(WeightSequence.constant(tail, prefix), Polynomial((-a * zeta, a)))


# maps whose min |f| over |z| >= r is reached on |z| = r, in closed form:
# r (r - 0.1) for z^2 + 0.1 z and r^m - 1 for 1 + z^m; every root lies
# inside the radius where min |f| = 1
THRESHOLD_MAPS = {
    "z2+0.1z": (0.0, 0.1, 1.0),
    "1+z": (1.0, 1.0),
    "1+z^2": (1.0, 0.0, 1.0),
    "1+z^3": (1.0, 0.0, 0.0, 1.0),
}


def threshold_instance(name, geometry, min_modulus):
    """f(B_w) whose annulus r2 <= |z| <= r1 has min |f| = min_modulus, on
    its inner circle: a circle (constant weight r) or the annulus of the
    doubling blocks (1.5 r, r)."""
    coeffs = THRESHOLD_MAPS[name]
    if name == "z2+0.1z":
        r = (0.1 + math.sqrt(0.01 + 4.0 * min_modulus)) / 2.0
    else:
        r = (1.0 + min_modulus) ** (1.0 / (len(coeffs) - 1))
    if geometry == "circle":
        w = WeightSequence.constant(r)
    else:
        w = WeightSequence.doubling_blocks(1.5 * r, r)
    return OperatorSpec(w, Polynomial(coeffs))


def perturbed_weights(w, rel_delta, rng):
    """Jitter every weight of the weights format by a factor 1 + U(-rel_delta,
    rel_delta): the prefix first, then the tail's numbers in ``to_dict`` order."""
    def jitter(v):
        if isinstance(v, list):
            return [jitter(x) for x in v]
        return v * (1.0 + rng.uniform(-rel_delta, rel_delta))

    d = w.to_dict()
    prefix = jitter(d["prefix"])
    tail = {k: v if k == "kind" else jitter(v) for k, v in d["tail"].items()}
    return WeightSequence.from_dict({"prefix": prefix, "tail": tail})


def perturbation_flips(op, rel_delta, trials, seed=0):
    """Monte Carlo oracle for the stability of a geometric verdict: re-decide
    under ``trials`` independent weight jitters and return (trial, decision,
    weights dict) for each one whose decision differs from the base one."""
    base = decide_geometric(op).decision
    rng = np.random.default_rng(seed)
    flips = []
    for t in range(trials):
        wp = perturbed_weights(op.weights, rel_delta, rng)
        decision = decide_geometric(OperatorSpec(wp, op.map)).decision
        if decision != base:
            flips.append((t, decision, wp.to_dict()))
    return flips


def naive_window_product(w, k, n):
    """Independent oracle: plain float multiplication, no log space."""
    out = 1.0
    for i in range(k, k + n):
        out *= w.value(i)
    return out


def naive_kappa_scan(w, n, k_limit=5000):
    """Independent oracle: brute minimum over a long explicit k scan."""
    return min(naive_window_product(w, k, n) for k in range(1, k_limit + 1))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
