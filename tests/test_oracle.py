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

The mixing witness's rounding allowance is checked against round trips
recomputed at 60 digits from the float stage vectors: both the exact
residual of a stage and the float round trip's own rounding stay below it.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (inner_transient_instance, random_instance, random_poly, random_series, random_weights,
                      threshold_instance)
import shiftspec.dynamics as dynamics
import shiftspec.holo
from shiftspec.budget import Budget
from shiftspec.dynamics import TruncatedVector, apply_operator, mixing_witness
from shiftspec.holo import (CERTIFIED, Annulus, Polynomial, RootRefinementError, Series, min_modulus_on_annulus,
                            winding_number)
from shiftspec.jclass import decide_geometric
from shiftspec.spectra import OperatorSpec, i_of_adjoint
from shiftspec.weights import TwoValueDoublingBlocks, WeightSequence, spectral_profile

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
# a subnormal map: |a z| rounds on the dense circle, and only the allowance's
# underflow term covers that rounding
@example(coeffs=[(0, 0), (0, 2.225073858507e-311)], inner=1.0, ratio=1.0)
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


@settings(max_examples=60, deadline=None)
@given(
    roots=st.lists(st.tuples(st.floats(0.0, 0.9, exclude_max=True), st.floats(0.0, 2 * math.pi)),
                   min_size=1, max_size=4),
    level=st.floats(0.5, 3.0),
    inner=st.floats(0.2, 2.5),
    ratio=st.floats(1.0, 2.0),
)
def test_min_modulus_bound_with_every_root_inside(roots, level, inner, ratio):
    # every root in |z| < 0.9 inner, the leading coefficient scaled so that
    # min |f| on the inner circle is at least ``level``: where that circle's
    # floor clears 1 the outer circle is not scanned, and the bound must
    # still sit below |f| on 17 radii across the annulus
    zs = [s * inner * complex(math.cos(t), math.sin(t)) for s, t in roots]
    coeffs = np.array([1.0 + 0j])
    for z in zs:
        coeffs = np.convolve(coeffs, [-z, 1.0])
    lead = level / math.prod(inner - abs(z) for z in zs)
    f = Polynomial(tuple(lead * coeffs))
    ann = Annulus(inner, inner * ratio)
    z = np.linspace(ann.inner, ann.outer, 17)[:, None] * np.exp(2j * math.pi * np.arange(4096) / 4096)
    dense = float(np.abs(f.eval(z)).min())
    cert = min_modulus_on_annulus(f, ann)
    assert cert.lower_bound <= dense + f.eval_round_error(ann.outer)


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


# -- root placement --------------------------------------------------------------


def _circles_between_roots(moduli) -> list:
    """A circle below the smallest root modulus, one between each pair of
    neighbouring moduli (at their geometric mean) and one past the largest."""
    moduli = sorted(m for m in moduli if m > 0)
    if not moduli:
        return []
    return ([0.5 * moduli[0]] + [math.sqrt(a * b) for a, b in zip(moduli, moduli[1:])]
            + [2.0 * moduli[-1]])


def test_complete_placement_counts_the_roots_inside_a_circle():
    # wherever the placement is complete and no disk meets the circle |z| =
    # r, the disks inside it count the roots inside it (mpmath at 50
    # digits), which is the winding about 0 that a valid winding_number
    # samples: on the root-disk draws (extreme scales, near-equal clusters)
    # and on corpus-like draws (825 circles, 762 of them with a valid
    # winding within 4096 samples)
    rng = np.random.default_rng(2024)
    draws = [_disk_polynomial(rng) for _ in range(120)] + [random_poly(rng) for _ in range(120)]
    counted = sampled = 0
    for f in draws:
        try:
            place = f.placement
        except RootRefinementError:
            continue
        if not place.complete:
            continue
        exact = [float(abs(e)) for e in _exact_roots(f.coeffs)]
        for r in _circles_between_roots(exact):
            count = place.count_within(Annulus(r, r))
            if count is None:
                continue
            assert count == sum(e < r for e in exact), (f.coeffs, r)
            counted += 1
            if math.isfinite(f.eval_round_error(r)):
                wr = winding_number(f, r, 0j, Budget(winding_max=4096))
                if wr.valid:
                    assert wr.winding == count, (f.coeffs, r)
                    sampled += 1
    assert counted >= 800 and sampled >= 700


def _series_twin(f: Polynomial) -> Series:
    """The same map as a series with a zero tail: it has no root placement,
    so it takes the sampled windings exactly as every map did before."""
    return Series(f.coeffs, tail_bound=0.0, tail_ratio=0.1, validity_radius=9.0)


# fallback cases: (map, weights), each with a reason the placement cannot
# settle condition B, and each deciding exactly as its series twin
FALLBACKS = {
    # a double root at 2.5: the polished seeds' disks overlap
    "double-root": (Polynomial((6.25, -5, 1)), WeightSequence.constant(2.0)),
    # seed 2024, draw 103 of the root-disk draws: the polish fails
    "unpolishable": (None, WeightSequence.doubling_blocks(2.0, 1.0)),
    # a companion matrix past the float range: numpy's LinAlgError
    "companion-overflow": (Polynomial((1e10, 0, 0, 1e-300)), WeightSequence.constant(2.0)),
    # a root disk across the inner circle |z| = 2
    "disk-on-circle": (Polynomial((-2, 1)), WeightSequence.doubling_blocks(3.0, 2.0)),
    # subnormal coefficients: a polished root whose modulus leaves the float range
    "modulus-overflow": (Polynomial((2.225073858507e-311 * (1 + 0.5j),) * 3), WeightSequence.constant(2.0)),
}


def _unpolishable() -> Polynomial:
    rng = np.random.default_rng(2024)
    for _ in range(104):
        f = _disk_polynomial(rng)
    return f


@pytest.mark.parametrize("case", FALLBACKS)
def test_placement_fallbacks_decide_as_sampled_windings(case):
    f, w = FALLBACKS[case]
    f = f or _unpolishable()
    if case in ("unpolishable", "companion-overflow"):
        with pytest.raises(ValueError):
            f.placement
    elif case == "double-root":
        assert not f.placement.complete
    elif case == "modulus-overflow":
        with pytest.raises(OverflowError):
            f.placement.complete
    op, twin = OperatorSpec(w, f), OperatorSpec(w, _series_twin(f))
    v, t = i_of_adjoint(op), i_of_adjoint(twin)
    assert v == t and v.inner_winding == t.inner_winding
    assert decide_geometric(op).to_dict() == decide_geometric(twin).to_dict()


def test_series_maps_and_zero_inner_radius_sample_their_windings():
    # a series map has no placement; an annulus with inner radius 0 has no
    # circle to count inside, so the polynomial scans as its series twin
    s = Series((0.5, 0, 1.0), tail_bound=1e-12, tail_ratio=0.1, validity_radius=8.0)
    assert s.placement is None
    v = decide_geometric(OperatorSpec(WeightSequence.constant(1.5), s))
    assert v.condition_b.winding.samples > 0
    f = Polynomial((0.5, 0, 1.0))
    ann = Annulus(0.0, 1.5)
    assert min_modulus_on_annulus(f, ann) == min_modulus_on_annulus(_series_twin(f), ann)


def test_root_disk_witness_holds_a_root_at_50_digits(monkeypatch):
    # the fuzz instance of seed 0, index 12 (degree 9, r2 = 7.7e-4, r1 =
    # 2.6e7): six of its nine root disks lie inside the open annulus, so a
    # root is the violation witness, with no winding sampled.  At 50 digits
    # the residual at the witness gives a radius within the program's, the
    # disk lies inside the annulus, and an exact root lies in it.  The float
    # |f| at the witness is about 6e30, all rounding: the root, not that
    # sample, is the certificate
    from test_cli import _extreme_instance

    rng = np.random.default_rng(0)
    for index in range(13):
        doc = _extreme_instance(rng, (10, 30, 100)[index % 3])
    op = OperatorSpec.from_dict(doc)
    prof = op.profile()
    calls, original = [], shiftspec.holo.winding_number
    monkeypatch.setattr(shiftspec.holo, "winding_number",
                        lambda *a, **k: calls.append(a) or original(*a, **k))
    v = decide_geometric(op)
    a = v.condition_a
    assert v.decision == "NOT_JCLASS" and calls == []
    assert a.status == CERTIFIED and a.min_sampled == a.lower_bound == 0.0
    z, rho = a.witness_point, a.root_radius
    assert prof.r2 < abs(z) - rho and abs(z) + rho < prof.r1
    assert _root_radius(op.map.coeffs, z) <= rho
    with mpmath.workdps(50):
        zz = mpmath.mpc(z.real, z.imag)
        assert min(abs(zz - e) for e in _exact_roots(op.map.coeffs)) <= rho


# -- round-trip rounding allowance ----------------------------------------------


def _exact_round_trip(op, x, n0) -> list:
    """f(B)^{n0} x on the buffer in 60-digit arithmetic, from the float
    coordinates of x (B^j shifts in zeros at the end, as apply_operator
    does)."""
    w = [mpmath.mpf(op.weights.value(k)) for k in range(1, x.size)]
    v = [mpmath.mpc(c) for c in x.coords]
    for _ in range(n0):
        out, shifted = [op.map.coeffs[0] * c for c in v], v
        for a in op.map.coeffs[1:]:
            shifted = [wk * c for wk, c in zip(w, shifted[1:])] + [mpmath.mpc(0)]
            out = [o + a * c for o, c in zip(out, shifted)]
        v = out
    return v


# family draws 2, 3, 5 and 6 reach ||x_1|| = 2e11 to 8e13 with round trips
# of 1e-4 to 0.14, past the absolute bar; draw 88 has n0 = 2
@pytest.mark.parametrize("draw", [2, 3, 5, 6, 88])
def test_round_trip_allowance_bounds_exact_rounding(draw):
    rng = np.random.default_rng(24)
    for _ in range(draw + 1):
        op = inner_transient_instance(rng)
    wit = mixing_witness(op, TruncatedVector.ones(256), 5)
    assert wit.ok and len(wit.stages) == 5
    solve = dynamics._solver(op, Budget().tol)
    with mpmath.workdps(60):
        for s in wit.stages:
            allowance = dynamics._round_trip_allowance(op, solve, s.z, s.x, wit.n0)
            back = apply_operator(op, s.x, wit.n0)
            n = min(back.exact_prefix, s.z.exact_prefix)
            exact = _exact_round_trip(op, s.x, wit.n0)[:n]
            residual = max(abs(e - mpmath.mpc(c)) for e, c in zip(exact, s.z.coords[:n]))
            rounding = max(abs(e - mpmath.mpc(c)) for e, c in zip(exact, back.coords[:n]))
            assert residual <= allowance and rounding <= allowance, (s.index, residual, rounding, allowance)
            assert s.round_trip_residual <= allowance
