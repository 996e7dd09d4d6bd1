import math

import numpy as np
import pytest

from shiftspec.holo import Polynomial, Series
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
