import math

import numpy as np
import pytest

import conftest
from conftest import random_poly
from shiftspec.budget import Budget
from shiftspec.holo import (
    CERTIFIED,
    UNDECIDED,
    Annulus,
    DomainError,
    Polynomial,
    Series,
    WindingResult,
    covers_closed_unit_disk,
    holo_from_dict,
    identity_map,
    min_modulus_on_annulus,
    winding_number,
)
from shiftspec.holo import _CIRCLE, _root_seeds


def P(*coeffs):
    return Polynomial(tuple(coeffs))


# -- evaluation ---------------------------------------------------------


def test_eval_identity():
    assert identity_map().eval(2 + 1j) == 2 + 1j


def test_eval_root():
    assert P(1, 0, 1).eval(1j) == 0


def test_eval_scaling_modulus():
    z = np.exp(1j * math.pi / 4)
    assert abs(P(0, 2).eval(z)) == pytest.approx(2.0)


def test_eval_vectorized_matches_scalar(rng):
    f = random_poly(rng)
    zs = rng.normal(size=8) + 1j * rng.normal(size=8)
    batch = f.eval(zs)
    for z, v in zip(zs, batch):
        assert f.eval(complex(z)) == pytest.approx(v)


def test_trailing_zeros_stripped():
    assert P(1, 2, 0, 0).coeffs == (1 + 0j, 2 + 0j)
    assert P(0, 0).coeffs == (0j,)


def test_series_domain_error():
    s = Series((1, 0.5), tail_bound=1.0, tail_ratio=0.5, validity_radius=2.0)
    with pytest.raises(DomainError):
        s.eval(2.5)
    with pytest.raises(ValueError):
        Series((1,), tail_bound=1.0, tail_ratio=0.9, validity_radius=2.0)


def test_series_truncation_error_bound():
    # geometric series sum q^n z^n truncated at N vs N+10
    q = 0.4
    n = 6
    full = Series(tuple(q**k for k in range(n + 10)), 1.0, q, 1 / q)
    trunc = Series(tuple(q**k for k in range(n)), 1.0, q, 1 / q)
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = 0.9 * (1 / q) * rng.uniform(0, 1) * np.exp(2j * math.pi * rng.uniform())
        gap = abs(full.eval(complex(z)) - trunc.eval(complex(z)))
        assert gap <= trunc.eval_error(abs(z)) + 1e-15


def test_series_tail_ratio_may_exceed_one():
    # only tail_ratio * validity_radius <= 1 matters: a validity radius below
    # 1 admits a ratio above 1, which these draws (radius < 1.1) produce
    rng = np.random.default_rng(5)
    series = [conftest.random_series(rng, rng.uniform(0.5, 3.0)) for _ in range(600)]
    assert sum(s.tail_ratio >= 1.0 for s in series) == 12
    with pytest.raises(ValueError, match="tail_ratio \\* radius <= 1"):
        Series((1,), 1.0, 0.9, 2.0)
    with pytest.raises(ValueError, match="tail ratio must be positive"):
        Series((1,), 1.0, 0.0, 2.0)


def test_series_truncation_error_bound_ratio_above_one():
    # sum (q z)^n with q = 1.6 on |z| < 1/q, truncated at 6 against 400 terms
    q, n = 1.6, 6
    full = Series(tuple(q**k for k in range(400)), 1.0, q, 1 / q)
    trunc = Series(tuple(q**k for k in range(n)), 1.0, q, 1 / q)
    rng = np.random.default_rng(11)
    for rho in (0.1, 0.4, 0.55, 0.6):
        bound = trunc.eval_error(rho)
        assert bound == pytest.approx((q * rho) ** n / (1 - q * rho))
        for theta in [0.0, *rng.uniform(0, 2 * math.pi, 20)]:
            z = rho * complex(math.cos(theta), math.sin(theta))
            gap = abs(full.eval(z) - trunc.eval(z))
            assert gap <= bound * (1 + 1e-12) + 1e-15


# -- derivative bound ---------------------------------------------------


def test_lipschitz_examples():
    assert P(0, 2).lipschitz_bound(1.0) == pytest.approx(2.0)
    assert P(1, 0, 1).lipschitz_bound(1.0) == pytest.approx(2.0)
    # coefficient formula: 3*4 + 1 = 13 (true sup is 11, overshoot allowed)
    assert P(0, -1, 0, 1).lipschitz_bound(2.0) == pytest.approx(13.0)


def test_lipschitz_dominates_differences(rng):
    for _ in range(20):
        f = random_poly(rng)
        r = 2.0
        lip = f.lipschitz_bound(r)
        z = r * rng.uniform(0, 1) * np.exp(2j * math.pi * rng.uniform())
        h = 1e-3 * np.exp(2j * math.pi * rng.uniform())
        if abs(z + h) > r:
            continue
        assert abs(f.eval(complex(z + h)) - f.eval(complex(z))) <= lip * abs(h) * 1.0001


def random_series(rng, stored, q):
    """A stored part of length ``stored`` and a longer reference series
    whose extra coefficients obey the tail bound |a_n| <= q^n."""
    phases = np.exp(2j * math.pi * rng.uniform(size=stored + 40))
    full = tuple(rng.uniform(0.2, 1.0) * q**n * p for n, p in enumerate(phases))
    return Series(full[:stored], 1.0, q, 1 / q), Series(full, 1.0, q, 1 / q)


def test_second_derivative_bound_series_tail_closed_form():
    q, r = 0.4, 2.0
    for m in (1, 2, 3, 7):
        s = Series((0j,) * m, 1.0, q, 1 / q)
        brute = sum(n * (n - 1) * q**n * r ** (n - 2) for n in range(m, 400))
        assert s.second_derivative_bound(r) == pytest.approx(brute, rel=1e-12)
        brute = sum(n * q**n * r ** (n - 1) for n in range(m, 400))
        assert s.derivative_error(r) == pytest.approx(brute, rel=1e-12)


def test_second_derivative_bound_dominates_second_differences(rng):
    # g(t) = f(r e^{it}) has |g(t + d) - 2 g(t) + g(t - d)| <= d^2 sup |g''|,
    # and sup |g''| <= r lip + r^2 second_derivative_bound
    d = 1e-3
    for k in range(40):
        if k % 2:
            f = random_poly(rng)
            f_true, r = f, rng.uniform(0.5, 2.5)
        else:
            q = rng.uniform(0.2, 0.6)
            f, f_true = random_series(rng, int(rng.integers(1, 6)), q)
            r = 0.9 / q * rng.uniform(0.3, 1.0)
        curv = r * f.lipschitz_bound(r) + r * r * f.second_derivative_bound(r)
        t = 2 * math.pi * rng.uniform(size=64)
        g = [f_true.eval(r * np.exp(1j * (t + s * d))) for s in (-1, 0, 1)]
        second = np.abs(g[2] - 2 * g[1] + g[0])
        assert second.max() <= curv * d * d * 1.0001 + 1e-12


# -- the shared error model ----------------------------------------------

TAIL_BOUNDS = ("eval_error", "derivative_error", "lipschitz_bound", "second_derivative_bound")


def test_series_without_tail_bounds_like_its_polynomial():
    # a map's bounds are its coefficients' part plus its tail's part, and a
    # zero tail bound adds nothing, bit for bit
    coeffs = (1 - 2j, 0.5, 0, 3j, -0.25)
    f, s = P(*coeffs), Series(coeffs, 0.0, 0.25, 4.0)
    for r in (0.0, 0.3, 1.0, 2.5, 3.99):
        for name in (*TAIL_BOUNDS, "eval_round_error"):
            assert getattr(s, name)(r).hex() == getattr(f, name)(r).hex(), (name, r)


@pytest.mark.parametrize("name", TAIL_BOUNDS)
def test_series_bounds_refuse_the_validity_circle_and_beyond(name):
    s = Series((1, 0.5), 1.0, 0.5, 2.0)
    assert math.isfinite(getattr(s, name)(1.99))
    for r in (2.0, 2.5):
        with pytest.raises(DomainError):
            getattr(s, name)(r)


def test_validity_radius_and_monomial_form_by_kind():
    assert P(1, 2).validity_radius == math.inf and P(0).validity_radius == math.inf
    assert P(0).monomial_form() == (0j, 0) and P(-2).monomial_form() == (-2, 0)
    assert P(0, 0, 3j).monomial_form() == (3j, 2) and P(1, 0, 3).monomial_form() is None
    s = Series((0, 0, 3.0), 0.5, 0.5, 2.0)
    assert s.validity_radius == 2.0 and s.monomial_form() is None
    with pytest.raises(TypeError):  # a series states its radius
        Series((1,), 1.0, 0.5)


def test_eval_with_derivative_matches(rng):
    for _ in range(10):
        f = random_poly(rng, max_degree=6)
        zs = rng.normal(size=16) + 1j * rng.normal(size=16)
        val, der = f.eval(zs, True)
        assert np.array_equal(val, f.eval(zs))
        assert np.allclose(der, f.derivative().eval(zs), rtol=1e-12, atol=1e-12)


def horner_0d(coeffs, z):
    """The recurrence on a 0-d numpy array, the way scalars were evaluated
    before they got a plain Python path."""
    out = np.zeros((), complex)
    for a in reversed(coeffs):
        out = out * z + a
    return out


def test_scalar_eval_bit_identical_to_0d_eval():
    # a scalar comes back as a Python complex with the 0-d array's bits.
    # A one-element array is no reference: numpy's SIMD complex loops may
    # fuse multiply and add (AVX-512 hosts), which moves the last bit
    rng = np.random.default_rng(31)
    for _ in range(2000):
        deg = int(rng.integers(0, 9))
        mags = 10.0 ** rng.uniform(-3, 3, deg + 1)
        coeffs = tuple(complex(c) for c in mags * np.exp(2j * math.pi * rng.uniform(size=deg + 1)))
        z = complex(10.0 ** rng.uniform(-2, 2) * np.exp(2j * math.pi * rng.uniform()))
        s = Series(coeffs, 1.0, min(0.5, 0.5 / abs(z)), 2.0 * abs(z))
        for f in (Polynomial(coeffs), s):
            val, ref = f.eval(z), horner_0d(f.coeffs, z)
            assert type(val) is complex
            assert np.array(val).tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [64, 128, 256])
def test_circle_table_matches_fresh_grids(n):
    # the circle scan's first arc centres and the winding grids read the
    # shared table; each slice must equal np.exp on its own angles bit for bit
    centres = np.exp(1j * ((np.arange(128) + 0.5) * (2.0 * math.pi / 128)))
    assert _CIRCLE[1::2].tobytes() == centres.tobytes()
    grid = np.exp(1j * (np.arange(n) * (2.0 * math.pi / n)))
    assert _CIRCLE[:: 256 // n].tobytes() == grid.tobytes()


# -- min modulus --------------------------------------------------------


def test_min_modulus_monomial_exact():
    cert = min_modulus_on_annulus(P(0, 2), Annulus(1, 1))
    assert cert.status == CERTIFIED
    assert cert.lower_bound == 2.0
    assert cert.grid_step == 0.0


def test_min_modulus_root_on_circle():
    cert = min_modulus_on_annulus(P(1, 0, 1), Annulus(1, 1))
    assert cert.status == CERTIFIED
    assert cert.certifies_violation
    assert cert.lower_bound <= 1e-3


def test_min_modulus_derived_circle_value():
    # oracle: dense one-dimensional scan over the circle
    r = math.sqrt(2) * 1.1
    theta = np.linspace(0, 2 * math.pi, 2_000_001)
    oracle = np.abs(1 + (r * np.exp(1j * theta)) ** 2).min()
    assert oracle == pytest.approx(r**2 - 1, abs=1e-9)  # = 1.42

    cert = min_modulus_on_annulus(P(1, 0, 1), Annulus(r, r))
    assert cert.status == CERTIFIED
    assert 1.40 <= cert.lower_bound <= oracle + 1e-12
    assert cert.certifies_above


def test_min_modulus_soundness_sampling(rng):
    for _ in range(5):
        f = random_poly(rng)
        ann = Annulus(0.8, 2.2)
        cert = min_modulus_on_annulus(f, ann)
        radii = np.sqrt(rng.uniform(ann.inner**2, ann.outer**2, 10_000))
        zs = radii * np.exp(2j * math.pi * rng.uniform(size=10_000))
        vals = np.abs(f.eval(zs))
        assert cert.lower_bound <= vals.min() + 1e-12
        assert cert.lower_bound <= cert.min_sampled


def test_min_modulus_reconstruction_inequality(rng):
    for _ in range(10):
        f = random_poly(rng)
        cert = min_modulus_on_annulus(f, Annulus(1.0, 2.0))
        slack = cert.lipschitz_bound * cert.grid_step * math.sqrt(2) / 2
        assert cert.lower_bound <= cert.min_sampled - slack + 1e-12


def test_min_modulus_width_target():
    cert = min_modulus_on_annulus(P(1, 0, 1), Annulus(2, 2), Budget())
    assert cert.certifies_above
    assert cert.width <= 1e-3 + 1e-9
    assert cert.min_sampled == pytest.approx(3.0, abs=1e-6)


def test_min_modulus_undecided_near_threshold():
    c = math.sqrt(2)  # true minimum of |1+z^2| on |z|=c is exactly 1
    cert = min_modulus_on_annulus(P(1, 0, 1), Annulus(c, c))
    assert cert.status == UNDECIDED


def test_min_modulus_series():
    s = Series((3, 0, 1), tail_bound=1e-12, tail_ratio=0.1, validity_radius=5.0)
    cert = min_modulus_on_annulus(s, Annulus(1, 1))
    assert cert.certifies_above
    assert cert.lower_bound == pytest.approx(2.0, abs=1e-2)
    with pytest.raises(DomainError):
        min_modulus_on_annulus(s, Annulus(1, 6))


@pytest.mark.parametrize("f", [P(1, 0, 1), P(0, 0, 1), P(1e-300, 0, 1)])
def test_min_modulus_refuses_overflowing_allowance(f):
    # sum |a_n| r^n at r = 1e160 leaves the float range: the allowance is
    # infinite instead of an OverflowError, and condition A refuses the map
    assert f.eval_round_error(1e160) == math.inf
    with pytest.raises(ValueError, match="overflows the float range"):
        min_modulus_on_annulus(f, Annulus(1e160, 1e160))


class NaNFirstPoint(Polynomial):
    """A polynomial whose array evaluations come back NaN at their first point."""

    def eval(self, z, derivative=False):
        out = super().eval(z, derivative)
        if np.ndim(z):
            (out[0] if derivative else out)[0] = complex(math.nan, math.nan)
        return out


def test_nan_arc_floor_never_retires():
    # |1 + z^2| >= 3 on |z| = 2, but one arc per pass has no usable floor:
    # it stays open until the budget retires it, as a floor of -inf
    f = NaNFirstPoint((1, 0, 1))
    cert = min_modulus_on_annulus(f, Annulus(2, 2), Budget(grid_max=1024))
    assert cert.status == UNDECIDED and cert.lower_bound == 0.0
    # the smallest sample skips the NaN: a NaN-first argmin left it inf
    assert math.isfinite(cert.min_sampled)
    assert min_modulus_on_annulus(P(1, 0, 1), Annulus(2, 2), Budget(grid_max=1024)).certifies_above


# -- winding numbers -----------------------------------------------------


def test_winding_examples():
    assert winding_number(identity_map(), 1.0, 0j).winding == 1
    assert winding_number(P(0, 0, 1), 1.0, 0j).winding == 2
    # curve is the circle centered at 3: never encircles the origin,
    # consistent with the only root of z+3 lying outside |z| < 1
    wr = winding_number(P(3, 1), 1.0, 0j)
    assert wr.winding == 0 and wr.valid


def test_winding_counts_roots(rng):
    for _ in range(200):
        f = random_poly(rng, max_degree=6)
        r = 1.0
        roots = f.roots()
        if any(abs(abs(z) - r) < 1e-3 for z in roots):
            continue
        expected = sum(1 for z in roots if abs(z) < r)
        wr = winding_number(f, r, 0j)
        assert wr.valid
        assert wr.winding == expected


def test_winding_invalid_when_curve_hits_target():
    wr = winding_number(P(1, 0, 1), 1.0, 0j)  # roots +-i on the circle
    assert not wr.valid


@pytest.mark.parametrize("f, radius", [(P(1, 0, 1), 1e160), (NaNFirstPoint((3, 0, 1)), 1.0)])
def test_winding_invalid_on_nonfinite_sample(f, radius):
    # samples past the float range, or a NaN sample, end the count at once
    with np.errstate(all="ignore"):
        wr = winding_number(f, radius, 0j)
    assert wr == WindingResult(0, False, 256, 0.0)


def winding_reference(f, radius, target, budget=Budget()):
    """The sampling loop before sample reuse: every doubling evaluates all
    n angles again."""
    tail_err = f.eval_error(radius) + f.eval_round_error(radius)
    lip = float(f.lipschitz_bound(radius))
    n = 256
    while True:
        theta = np.arange(n) * (2.0 * math.pi / n)
        phi = f.eval(radius * np.exp(1j * theta)) - target
        dist = np.abs(phi)
        min_dist = float(dist.min()) - tail_err
        u = phi / np.maximum(dist, 1e-300)
        increments = np.angle(np.roll(u, -1) * np.conj(u))
        total = float(increments.sum()) / (2.0 * math.pi)
        wind = int(round(total))
        arc = radius * 2.0 * math.pi / n
        ok = (
            min_dist > lip * arc
            and float(np.abs(increments).max()) < 0.5 * math.pi
            and abs(total - wind) < 0.25
        )
        if ok or 2 * n > budget.winding_max:
            return WindingResult(wind, ok, n, min_dist)
        n *= 2


def test_winding_reuses_samples(monkeypatch, rng):
    points = []
    plain_eval = Polynomial.eval

    def counting(self, z, derivative=False):
        points.append(np.size(z))
        return plain_eval(self, z, derivative)

    # a root 0.005 outside the unit circle needs n >= 2 pi / 0.005: 2048
    # samples, three doublings
    f = P(-1.005, 1)
    expected = winding_reference(f, 1.0, 0j)
    assert expected.samples == 2048 and expected.valid
    monkeypatch.setattr(Polynomial, "eval", counting)
    assert winding_number(f, 1.0, 0j) == expected
    assert points == [256, 256, 512, 1024]

    monkeypatch.setattr(Polynomial, "eval", plain_eval)
    for _ in range(60):
        f = random_poly(rng, max_degree=6)
        r, target = rng.uniform(0.3, 2.5), complex(*rng.normal(size=2)) * 0.3
        budget = Budget(winding_max=2**13)
        assert winding_number(f, r, target, budget) == winding_reference(f, r, target, budget)


@pytest.mark.parametrize(
    "f, cap, samples, valid",
    [
        (P(3, 0, 1), 64, 64, True),
        (P(3, 0, 1), 100, 64, True),
        (P(3, 0, 1), 255, 128, True),
        (P(3, 0, 1), 300, 256, True),
        (P(-1.005, 1), 100, 64, False),  # needs 2048 samples
        (P(-1.005, 1), 1000, 512, False),
    ],
)
def test_winding_samples_within_cap(f, cap, samples, valid):
    wr = winding_number(f, 1.0, 0j, Budget(winding_max=cap))
    assert (wr.samples, wr.valid) == (samples, valid)


# -- coverage ------------------------------------------------------------


def test_covers_examples():
    cert = min_modulus_on_annulus(P(0, 2), Annulus(1, 1))
    assert covers_closed_unit_disk(P(0, 2), 1.0, cert).covers is True

    cert = min_modulus_on_annulus(P(3, 1), Annulus(1, 1))
    assert cert.lower_bound > 1  # min |z+3| = 2 on the circle
    assert covers_closed_unit_disk(P(3, 1), 1.0, cert).covers is False

    cert = min_modulus_on_annulus(P(1, 0, 1), Annulus(2, 2))
    res = covers_closed_unit_disk(P(1, 0, 1), 2.0, cert)
    assert res.covers is True and res.winding.winding == 2  # roots +-i inside


def test_covers_requires_certified_bound():
    cert = min_modulus_on_annulus(P(1, 0, 1), Annulus(1, 1))  # violation
    with pytest.raises(ValueError):
        covers_closed_unit_disk(P(1, 0, 1), 1.0, cert)


def test_covers_constant_across_targets(rng):
    f = P(1, 0, 1)
    cert = min_modulus_on_annulus(f, Annulus(2, 2))
    res = covers_closed_unit_disk(f, 2.0, cert)
    assert res.covers is True
    for _ in range(100):
        mu = rng.uniform(0, 1) * np.exp(2j * math.pi * rng.uniform())
        wr = winding_number(f, 2.0, complex(mu))
        assert wr.valid and wr.winding >= 1


# -- roots ---------------------------------------------------------------


def test_roots_examples():
    assert P(-2, 1).roots() == [pytest.approx(2.0)]
    rs = sorted(P(1, 0, 1).roots(), key=lambda z: z.imag)
    assert rs[0] == pytest.approx(-1j)
    assert rs[1] == pytest.approx(1j)
    rs = sorted(P(2, -3, 1).roots(), key=lambda z: z.real)
    assert rs[0] == pytest.approx(1.0)
    assert rs[1] == pytest.approx(2.0)
    # factorization check by evaluation
    f = P(2, -3, 1)
    for z in f.roots():
        assert abs(f.eval(z)) <= 1e-10 * (1 + 3)


def test_roots_residual_bound(rng):
    for _ in range(50):
        f = random_poly(rng, max_degree=6)
        scale = 1 + max(abs(c) for c in f.coeffs)
        for z in f.roots():
            assert abs(f.eval(z)) <= 1e-10 * scale


def test_roots_large_root_within_rounding_allowance():
    # a tiny leading coefficient puts one root near 691, where Horner's
    # rounding alone exceeds the absolute target 1e-10 * (1 + max |a|)
    f = P(
        0.8938622079538034 - 0.351737360012764j,
        -0.1613106291217945 + 0.7145541223598708j,
        -0.06477370334527777 + 1.7295332262086887j,
        -1.250702409194358 - 1.4460676452117127j,
        0.002604151556353518 + 0.0009211163378552989j,
    )
    rs = f.roots()
    target = 1e-10 * (1 + max(abs(c) for c in f.coeffs))
    assert max(abs(z) for z in rs) > 600
    assert max(abs(f.eval(z)) for z in rs) > target
    reference = np.roots(f.coeffs[::-1])
    for z in rs:
        assert abs(f.eval(z)) <= target + f.eval_round_error(abs(z))
        assert min(abs(reference - z)) <= 1e-12 * max(1.0, abs(z))


def test_roots_seeds_match_numpy(rng):
    # degree 1 is numpy's quotient, bit for bit, and so are the companion
    # eigenvalues from degree 3; degree 1 needs no Newton step
    for _ in range(200):
        c = tuple(complex(a, b) for a, b in rng.uniform(-2, 2, (2, 2)) * 10.0 ** rng.uniform(-5, 5))
        assert P(*c).roots() == np.roots(c[::-1]).tolist()
    for degree in (3, 4, 6):
        c = tuple(complex(a, b) for a, b in rng.uniform(-2, 2, (degree + 1, 2)))
        assert _root_seeds(c) == np.roots(c[::-1]).tolist()


def test_roots_quadratic_order_and_range():
    # larger modulus first, a modulus tie to the larger imaginary part; the
    # scaled formula stays finite where b^2 would overflow
    assert P(2, -3, 1).roots() == [2.0, 1.0]
    assert P(1, 0, 1).roots() == [1j, -1j]
    assert P(1e160, 0, 1e160).roots() == [1j, -1j]
    assert P(1e300, 3e300, 1e300).roots() == pytest.approx([-2.618033988749895, -0.3819660112501051])
    assert P(0.25, -1, 1).roots() == [0.5, 0.5]
    assert P(0, 0, 1).roots() == [0j, 0j]
    assert P(0, 2, 1).roots() == [-2.0, 0j]


def test_scalar_eval_with_derivative_matches_arrays(rng):
    f = random_poly(rng, max_degree=5)
    s = Series(f.coeffs, 0.01, 0.1, 5.0)
    zs = rng.uniform(-2, 2, 16) + 1j * rng.uniform(-2, 2, 16)
    for g in (f, s):
        val, der = g.eval(zs, True)
        for k, z in enumerate(zs.tolist()):
            fz, dz = g.eval(z, derivative=True)
            assert type(fz) is complex and type(dz) is complex
            assert fz == pytest.approx(val[k], rel=1e-14) and dz == pytest.approx(der[k], rel=1e-14)
    with pytest.raises(DomainError):
        s.eval(5.0 + 0j, derivative=True)


def test_roots_series_unsupported():
    s = Series((1, 1), 0.5, 0.5, 2.0)
    with pytest.raises(AttributeError):
        s.roots()


# -- serialization -------------------------------------------------------


def test_holo_serialization_round_trip(rng):
    f = random_poly(rng)
    assert holo_from_dict(f.to_dict()) == f
    s = Series((1, 2j), 0.25, 0.5, 2.0)
    assert holo_from_dict(s.to_dict()) == s
