"""Interval-arithmetic oracle for the condition-A certificates.

The program certifies condition A on the two boundary circles of the
annulus and relies on the minimum modulus and argument principles to
extend the bound to the whole annulus.  This oracle relies on neither: it
covers the 2-D annulus with polar cells (r, t) and bounds |f| on each cell
with mpmath's interval arithmetic, every rounding directed outward.  The
bound is a centred (mean value) form of F(r, t) = f(r e^{it}) about a point
c of the cell, projected on the direction u = conj(F(c)):

    |F| >= Re(u F) / |u|,
    Re(u F) in Re(u F(c)) + Re(u dF/dr)(r - r_c) + Re(u dF/dt)(t - t_c),

with dF/dr = f'(z) e^{it} and dF/dt = f'(z) i z enclosed over the cell.
Cells that fall short of the claimed bound are split along their longer
side.

Series maps are checked on their stored part: every map whose stored
coefficients match and whose tail obeys |a_n| <= B q^n is admissible, and
one of them has |f(z)| = |stored part| - eval_error at any given z, so a
certified bound must clear the stored part by eval_error on each boundary
circle.  Winding numbers are checked against the roots inside the circle,
located by mpmath.polyroots at 50 digits, and Polynomial.roots against the
same roots, each within twice the radius its residual proves; every root
disk that the polish returns holds one of them.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (random_instance, random_poly, random_series, random_weights,
                      threshold_instance)
from shiftspec.budget import Budget
from shiftspec.holo import (CERTIFIED, Annulus, Polynomial, RootRefinementError, min_modulus_on_annulus,
                            winding_number)
from shiftspec.spectra import OperatorSpec, i_of_adjoint
from shiftspec.weights import TwoValueDoublingBlocks, spectral_profile

mpmath = pytest.importorskip("mpmath")
iv = mpmath.iv

N_INSTANCES = 30
MAX_CELLS = 50_000


def _doubling_block_instances(n: int, seed: int = 7) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    while len(ops) < n:
        op = random_instance(rng)
        if isinstance(op.weights.tail, TwoValueDoublingBlocks) and op.map.monomial_form() is None:
            ops.append(op)
    return ops


# (map, geometry, min |f| - 1): each map once on each side of the
# threshold, every geometry, clearance and side combination once
THRESHOLD_CASES = [
    ("z2+0.1z", "circle", 1e-8),
    ("z2+0.1z", "annulus", -1e-9),
    ("1+z", "annulus", 1e-9),
    ("1+z", "circle", -1e-8),
    ("1+z^2", "circle", 1e-9),
    ("1+z^2", "annulus", -1e-8),
    ("1+z^3", "annulus", 1e-8),
    ("1+z^3", "circle", -1e-9),
]
INSTANCES = _doubling_block_instances(N_INSTANCES) + [
    threshold_instance(name, geometry, 1.0 + c) for name, geometry, c in THRESHOLD_CASES]
IDS = [f"blocks{i}" for i in range(N_INSTANCES)] + [
    f"{name}-{geometry}{c:+.0e}" for name, geometry, c in THRESHOLD_CASES]


def _horner(coeffs, z):
    out = iv.mpc(0)
    for a in reversed(coeffs):
        out = out * z + a
    return out


def _polar_box(r_lo, r_hi, t_lo, t_hi):
    """Interval boxes holding r e^{it} and e^{it} over the polar cell."""
    r, t = iv.mpf([r_lo, r_hi]), iv.mpf([t_lo, t_hi])
    e = iv.mpc(iv.cos(t), iv.sin(t))
    return r * e, e


def _cell_floor(a, da, r_lo, r_hi, t_lo, t_hi) -> tuple:
    """(lower bound for |f| on the cell, upper bound for |f| at a cell point).

    The centred form is taken about the middle angle on the inner and on
    the outer edge, and the larger bound is kept: near a boundary minimum
    |F| grows into the annulus and the angular derivative is perpendicular
    to F, so both correction terms stay small.
    """
    tc = 0.5 * (t_lo + t_hi)
    box, e = _polar_box(r_lo, r_hi, t_lo, t_hi)
    slope = _horner(da, box)
    lower, upper = -math.inf, math.inf
    for r_c in {r_lo, r_hi}:
        fc = _horner(a, _polar_box(r_c, r_c, tc, tc)[0])
        upper = min(upper, abs(fc).b)
        u = iv.mpc(fc.real.mid, -fc.imag.mid)  # a point near conj(F(c))
        if u == 0:
            continue
        proj = ((u * fc).real
                + (u * slope * e).real * (iv.mpf([r_lo, r_hi]) - r_c)
                + (u * slope * box * 1j).real * (iv.mpf([t_lo, t_hi]) - tc))
        lower = max(lower, (proj / abs(u)).a)
    return lower, upper


def proves_floor(coeffs, inner: float, outer: float, floor: float) -> bool:
    """True when interval arithmetic shows |f| >= floor on inner <= |z| <= outer.

    False when a cell point has |f| < floor for certain, or when MAX_CELLS
    cells do not settle the question.
    """
    a = [iv.mpc(c.real, c.imag) for c in coeffs]
    da = [n * a[n] for n in range(1, len(a))]
    # the angular edges are floats; the last cell reaches past 2 pi
    edges = [2.0 * math.pi * k / 32 for k in range(32)] + [7.0]
    cells = [(inner, outer, lo, hi) for lo, hi in zip(edges, edges[1:])]
    for _ in range(MAX_CELLS):
        if not cells:
            return True
        r_lo, r_hi, t_lo, t_hi = cells.pop()
        lower, upper = _cell_floor(a, da, r_lo, r_hi, t_lo, t_hi)
        if lower >= floor:
            continue
        if upper < floor:
            return False
        rc, tc = 0.5 * (r_lo + r_hi), 0.5 * (t_lo + t_hi)
        if r_hi - r_lo >= r_hi * (t_hi - t_lo):
            cells += [(r_lo, rc, t_lo, t_hi), (rc, r_hi, t_lo, t_hi)]
        else:
            cells += [(r_lo, r_hi, t_lo, tc), (r_lo, r_hi, tc, t_hi)]
    return False


def proves_violation(coeffs, inner: float, outer: float, w: complex) -> bool:
    """True when interval arithmetic shows some z with inner <= |z| <= outer
    and |f(z)| <= 1: |f(w)| <= 1 + allowance, the allowance being a
    Lipschitz bound times the distance from w to the annulus."""
    a = [iv.mpc(c.real, c.imag) for c in coeffs]
    z = iv.mpc(w.real, w.imag)
    off = max(0, (inner - abs(z)).b, (abs(z) - outer).b)
    lip = sum(n * abs(a[n]) * (outer + off) ** (n - 1) for n in range(1, len(a)))
    return abs(_horner(a, z)).b <= (1 + lip * off).a


@pytest.mark.parametrize("op", INSTANCES, ids=IDS)
def test_condition_a_certificate_holds(op):
    prof = op.profile()
    cert = i_of_adjoint(op)
    coeffs = op.map.coeffs
    if cert.lower_bound > 0:
        assert proves_floor(coeffs, prof.r2, prof.r1, cert.lower_bound)
    if cert.certifies_violation:
        assert proves_violation(coeffs, prof.r2, prof.r1, cert.witness_point)


@pytest.mark.parametrize("case", THRESHOLD_CASES, ids=IDS[N_INSTANCES:])
def test_threshold_inputs_are_decided(case):
    # the threshold inputs above check a certificate, not a vacuous pass
    name, geometry, c = case
    cert = i_of_adjoint(threshold_instance(name, geometry, 1.0 + c))
    assert cert.certifies_above if c > 0 else cert.certifies_violation


def test_oracle_refutes_a_wrong_floor():
    # |3z - 4.5| vanishes at 1.5, inside 1 <= |z| <= 2
    assert not proves_floor((-4.5 + 0j, 3 + 0j), 1.0, 2.0, 0.5)
    assert proves_floor((-4.5 + 0j, 3 + 0j), 1.0, 1.2, 0.5)
    assert not proves_violation((-4.5 + 0j, 3 + 0j), 1.0, 2.0, 1.0 + 0j)
    assert proves_violation((-4.5 + 0j, 3 + 0j), 1.0, 2.0, 1.5 + 0j)


@settings(max_examples=80, deadline=None)
@given(
    coeffs=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), min_size=2, max_size=5),
    inner=st.floats(0.2, 2.5),
    ratio=st.sampled_from([1.0, 1.0, 1.3, 1.6]),
)
def test_min_modulus_bound_below_dense_samples(coeffs, inner, ratio):
    # degree 1-4 on a circle (ratio 1) or an annulus: the bound sits below
    # |f| on a dense polar grid, and a larger gridMax keeps any CERTIFIED
    # answer a smaller one gave
    f = Polynomial(tuple(complex(a, b) for a, b in coeffs))
    assume(f.degree >= 1)
    ann = Annulus(inner, inner * ratio)
    radii = np.linspace(ann.inner, ann.outer, 1 if ratio == 1.0 else 17)
    z = radii[:, None] * np.exp(2j * math.pi * np.arange(4096) / 4096)
    dense = float(np.abs(f.eval(z)).min())
    answers = []
    for grid_max in (64, 1024, Budget().grid_max):
        cert = min_modulus_on_annulus(f, ann, Budget(grid_max=grid_max))
        assert cert.lower_bound <= dense + f.eval_round_error(ann.outer)
        assert cert.lower_bound <= cert.min_sampled
        if cert.status == CERTIFIED:
            answers.append(cert.certifies_above)
        else:
            assert not answers, "a larger gridMax lost a certified answer"
    assert len(set(answers)) <= 1


def _series_instances(n: int, seed: int = 13) -> list:
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n):
        w = random_weights(rng)
        ops.append(OperatorSpec(w, random_series(rng, spectral_profile(w).r1)))
    return ops


SERIES_INSTANCES = _series_instances(24)


@pytest.mark.parametrize("op", SERIES_INSTANCES,
                         ids=[f"series{i}" for i in range(len(SERIES_INSTANCES))])
def test_series_condition_a_bound_holds_for_every_tail(op):
    prof = op.profile()
    cert = i_of_adjoint(op)
    if cert.status == CERTIFIED and cert.lower_bound > 0:
        for r in {prof.r2, prof.r1}:
            assert proves_floor(op.map.coeffs, r, r, cert.lower_bound + op.map.eval_error(r))


def test_series_instances_certify_positive_bounds():
    # the series check above is not vacuous
    certs = [i_of_adjoint(op) for op in SERIES_INSTANCES]
    assert sum(c.status == CERTIFIED and c.lower_bound > 0 for c in certs) >= 12


def root_moduli(coeffs) -> list:
    """|z| of every root of the polynomial, from mpmath at 50 digits."""
    with mpmath.workdps(50):
        roots = mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in reversed(coeffs)],
                                 maxsteps=200, extraprec=200)
        return [float(abs(z)) for z in roots]


def test_valid_winding_counts_roots_inside():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(200):
        f = random_poly(rng, max_degree=6)
        r = rng.uniform(0.3, 2.5)
        moduli = root_moduli(f.coeffs)
        if any(abs(m - r) < 1e-6 * r for m in moduli):
            continue
        wr = winding_number(f, r, 0j)
        if wr.valid:
            assert wr.winding == sum(m < r for m in moduli)
            checked += 1
    assert checked >= 150


def _exact_roots(coeffs) -> list:
    """Every root of the float polynomial, from mpmath at 50 digits."""
    with mpmath.workdps(50):
        return mpmath.polyroots([mpmath.mpc(c.real, c.imag) for c in reversed(coeffs)],
                                maxsteps=400, extraprec=400)


def _root_radius(coeffs, z) -> float:
    """Radius about z that holds a root, from the residual r = |f(z)| at 50
    digits: (r / |a_d|)^(1/d) by the product form, and d r / |f'(z)| since
    f'/f = sum 1/(z - root)."""
    with mpmath.workdps(50):
        z = mpmath.mpc(z.real, z.imag)
        f0 = f1 = mpmath.mpc(0)
        for a in reversed(coeffs):
            f1 = f1 * z + f0
            f0 = f0 * z + mpmath.mpc(a.real, a.imag)
        d = len(coeffs) - 1
        rho = (abs(f0) / abs(mpmath.mpc(coeffs[-1].real, coeffs[-1].imag))) ** (mpmath.mpf(1) / d)
        if f1 != 0:
            rho = min(rho, d * abs(f0) / abs(f1))
        return float(rho)


_moduli = st.floats(-1.0, 1.0).map(lambda e: 10.0**e)  # 0.1 to 10, log-uniform
_angles = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, 2 * math.pi))
_planted = st.builds(lambda m, t: m * complex(math.cos(t), math.sin(t)), _moduli, _angles)


@settings(max_examples=100, deadline=None)
@given(
    planted=st.lists(_planted, min_size=1, max_size=4),
    double=st.booleans(),
    lead=st.builds(lambda e, t: 10.0**e * complex(math.cos(t), math.sin(t)),
                   st.floats(-3.0, 0.0), _angles),
    zeros=st.integers(0, 2),
    scale=st.sampled_from([1e-150, 1e-50, 1.0, 1e50, 1e150]),
)
def test_roots_match_mpmath(planted, double, lead, zeros, scale):
    # degree 1-4 with planted roots, a double root, a small leading
    # coefficient, zero roots and overall scales of 1e+-150: every root
    # passes the acceptance test and lies within its residual's radius of
    # its own exact root, one exact root for each computed one
    if double and len(planted) > 1:
        planted[1] = planted[0]
    desc = np.poly(planted) * lead * scale
    f = Polynomial((0j,) * zeros + tuple(complex(c) for c in desc[::-1]))
    roots = f.roots()
    assert len(roots) == f.degree
    assert roots[len(roots) - zeros:] == [0j] * zeros
    assert not any(math.copysign(1.0, x) < 0 for z in roots for x in (z.real, z.imag) if x == 0)
    target = 1e-10 * (1.0 + max(abs(c) for c in f.coeffs))
    for z in roots:
        assert abs(f.eval(z)) <= target + f.eval_round_error(abs(z))
    exact = _exact_roots(f.coeffs)
    reach = [2.0 * _root_radius(f.coeffs, z) + 1e-20 * (1.0 + abs(z)) for z in roots]
    assert any(all(abs(mpmath.mpc(z.real, z.imag) - exact[j]) <= t
                   for z, t, j in zip(roots, reach, perm))
               for perm in itertools.permutations(range(len(exact))))


def _disk_polynomial(rng) -> Polynomial:
    """Degree 1-9: random coefficients of modulus 10^-30 to 10^30, planted
    roots under an overall scale of 10^-30 to 10^30, or planted roots with a
    cluster of up to four nearly equal ones (relative gaps 1e-12 to 1e-4)."""
    degree = int(rng.integers(1, 10))
    phases = lambda k: np.exp(2j * math.pi * rng.uniform(size=k))  # noqa: E731
    kind = int(rng.integers(0, 3))
    if kind == 0:
        coeffs = 10.0 ** rng.uniform(-30, 30, degree + 1) * phases(degree + 1)
        return Polynomial(tuple(complex(c) for c in coeffs))
    planted = 10.0 ** rng.uniform(-1, 1, degree) * phases(degree)
    if kind == 2:
        size = min(degree, int(rng.integers(2, 5)))
        gaps = 10.0 ** rng.uniform(-12, -4, size - 1) * phases(size - 1)
        planted[1:size] = planted[0] * (1.0 + gaps)
    desc = np.poly(planted) * 10.0 ** rng.uniform(-30, 30) * phases(1)[0]
    return Polynomial(tuple(complex(c) for c in desc[::-1]))


def test_root_disks_hold_a_root():
    # every disk of roots(radii=True) holds a root of f at 50 digits: the
    # product form and the log-derivative form less f''s rounding allowance
    # are both sound, also for clusters and for coefficients up to 1e+-30;
    # a polynomial whose polish fails (RootRefinementError) returns no disks
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(120):
        f = _disk_polynomial(rng)
        try:
            roots, radii = f.roots(radii=True)
        except RootRefinementError:
            continue
        assert roots == f.roots() and len(radii) == f.degree
        exact = _exact_roots(f.coeffs)
        for z, rho in zip(roots, radii):
            assert rho >= 0.0
            assert min(abs(mpmath.mpc(z.real, z.imag) - e) for e in exact) <= rho
        checked += 1
    assert checked >= 100
