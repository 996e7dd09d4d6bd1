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
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_instance, threshold_instance
from shiftspec.budget import Budget
from shiftspec.holo import CERTIFIED, Annulus, Polynomial, min_modulus_on_annulus
from shiftspec.spectra import i_of_adjoint
from shiftspec.weights import TwoValueDoublingBlocks

iv = pytest.importorskip("mpmath").iv

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
