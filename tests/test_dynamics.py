import bisect
import cmath
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftspec.dynamics as dynamics
import shiftspec.holo
import shiftspec.weights as weights
from conftest import inner_transient_instance, random_weights
from shiftspec.budget import Budget
from shiftspec.dynamics import (
    HEURISTIC_NONMEMBER,
    MEMBER,
    RootInAnnulusError,
    TruncatedVector,
    apply_operator,
    eigenvector,
    jset_experiment,
    mixing_witness,
    preimage_power,
    shift_power,
    solve_factor_inner,
    solve_factor_outer,
    solve_poly,
    span_approximate,
)
from shiftspec.holo import Polynomial, identity_map
from shiftspec.spectra import OperatorSpec
from shiftspec.weights import (
    ConstantTail,
    PeriodicTail,
    TwoValueDoublingBlocks,
    WeightSequence,
    kappa_forward_power,
    spectral_profile,
)


def P(*coeffs):
    return Polynomial(tuple(coeffs))


def const_op(c, f=None):
    return OperatorSpec(WeightSequence.constant(c), f or identity_map())


# -- vectors ---------------------------------------------------------------


def test_vector_norms_and_prefix():
    v = TruncatedVector.from_list([3, 1, 7, 2], exact_prefix=2)
    assert v.sup_norm() == 3.0  # only the exact prefix counts
    assert v.sup_norm_full() == 7.0
    with pytest.raises(ValueError):
        TruncatedVector.from_list([1], exact_prefix=5)


def test_vector_serialization():
    v = TruncatedVector.from_list([1 + 2j, 3], exact_prefix=1)
    w = TruncatedVector.from_dict(v.to_dict())
    assert np.allclose(v.coords, w.coords) and w.exact_prefix == 1


# -- operator action ---------------------------------------------------------


def test_apply_unweighted_shift():
    x = TruncatedVector.from_list([1, 2, 3, 4])
    y = apply_operator(const_op(1.0), x)
    assert y.coords.tolist() == [2, 3, 4, 0]
    assert y.exact_prefix == 3


def test_apply_kernel_vector():
    y = apply_operator(const_op(2.0), TruncatedVector.basis(4, 1))
    assert np.all(y.coords == 0)


def test_apply_polynomial_by_hand():
    # (1 + B^2) e3 = e3 + e1 for unit weights
    y = apply_operator(const_op(1.0, P(1, 0, 1)), TruncatedVector.basis(8, 3))
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[2] = 1.0
    assert np.allclose(y.coords, expected)
    assert y.exact_prefix == 6


def test_apply_warns_on_prefix_exhaustion():
    x = TruncatedVector.from_list([1, 2, 3])
    with pytest.warns(UserWarning):
        apply_operator(const_op(1.0), x, n=3)


def test_shift_power_matches_window_products(rng):
    for _ in range(10):
        w = random_weights(rng)
        x = TruncatedVector(rng.normal(size=16) + 0j, 16)
        n = int(rng.integers(1, 4))
        y = shift_power(w, x, n)
        for k in range(16 - n):
            prod = math.prod(w.value(k + 1 + i) for i in range(n))
            assert y.coords[k] == pytest.approx(prod * x.coords[k + n], rel=1e-12)


def test_apply_operator_matches_shift_power_sums(rng):
    # reference: each application sums a_j shift_power(w, x, j) afresh;
    # apply_operator must give the same bytes, signed zeros included
    for _ in range(40):
        w = random_weights(rng)
        coeffs = [complex(*rng.normal(size=2)) if rng.random() < 0.7 else -0j
                  for _ in range(int(rng.integers(0, 5)))]
        op = OperatorSpec(w, P(*coeffs, 1))
        size, n = int(rng.integers(24, 64)), int(rng.integers(0, 5))
        coords = rng.normal(size=size) + 1j * rng.normal(size=size)
        coords[rng.random(size) < 0.2] = -0.0
        want = x = TruncatedVector(coords, size)
        for _ in range(n):
            acc = np.zeros(size, dtype=complex)
            for j, a in enumerate(op.map.coeffs):
                if a != 0:
                    acc += a * shift_power(w, want, j).coords
            want = TruncatedVector(acc, want.exact_prefix - op.map.degree)
        got = apply_operator(op, x, n)
        assert got.coords.tobytes() == want.coords.tobytes()
        assert got.exact_prefix == want.exact_prefix


# -- preimages ----------------------------------------------------------------


def test_preimage_constant_weights():
    x = preimage_power(WeightSequence.constant(2.0), TruncatedVector.ones(8), 1)
    assert np.allclose(x.coords, [0] + [0.5] * 7)


def test_preimage_two_steps():
    x = preimage_power(WeightSequence.constant(2.0), TruncatedVector.basis(8, 1), 2)
    expected = np.zeros(8, dtype=complex)
    expected[2] = 0.25  # window product w1 w2 = 4
    assert np.allclose(x.coords, expected)


def test_preimage_periodic():
    w = WeightSequence.periodic([4.0, 1.0])
    x = preimage_power(w, TruncatedVector.ones(8), 2)
    assert np.allclose(x.coords[2:], 0.25)  # every window of length 2 is 4


def test_preimage_round_trip_and_norm(rng):
    for _ in range(20):
        w = random_weights(rng)
        z = TruncatedVector(rng.normal(size=32) + 1j * rng.normal(size=32), 32)
        n0 = int(rng.integers(1, 4))
        x = preimage_power(w, z, n0)
        back = shift_power(w, x, n0)
        assert back.prefix_distance(z) <= 1e-12 * z.sup_norm()
        assert x.sup_norm() <= z.sup_norm() / kappa_forward_power(w, n0) * (1 + 1e-12)


# -- factor solvers ------------------------------------------------------------


def test_inner_factor_zero_reduces_to_preimage():
    w = WeightSequence.constant(2.0)
    y = TruncatedVector.ones(8)
    a = solve_factor_inner(w, 0.0, y)
    b = preimage_power(w, y, 1)
    assert np.allclose(a.coords, b.coords)


def test_inner_factor_unrolled_recurrence():
    # x_{k+1} = (y_k + x_k) / 2 from e1: 0, 1/2, 1/4, ...
    x = solve_factor_inner(WeightSequence.constant(2.0), 1.0, TruncatedVector.basis(8, 1))
    assert np.allclose(x.coords, [0] + [2.0 ** -k for k in range(1, 8)])


def test_inner_factor_fixed_point_bounded():
    x = solve_factor_inner(WeightSequence.constant(2.0), 1.0, TruncatedVector.ones(64))
    assert x.sup_norm() <= 1.0 + 1e-12
    assert x.coords[-1] == pytest.approx(1.0, abs=1e-9)  # fixed point of the recurrence


def test_inner_factor_domain_guard():
    with pytest.raises(ValueError):
        solve_factor_inner(WeightSequence.constant(1.0), 1.0, TruncatedVector.ones(8))


# the inner scan against the coordinate recurrence written out


def naive_inner(w, zeta, y):
    """x_1 = 0, x_{k+1} = (y_k + zeta x_k) / w_k, one coordinate at a time."""
    out = [0j][: len(y)]
    for k in range(1, len(y)):
        out.append((complex(y[k - 1]) + zeta * out[-1]) / w.value(k))
    return np.array(out, dtype=complex)


BLOCK = dynamics._SCAN_BLOCK


def chunk(n: int) -> int:
    """The scan's chunk length on an n-coordinate vector (n - 1 steps)."""
    return dynamics._scan_chunk(n - 1)


def whole_chunks(n: int) -> tuple[int, int]:
    """Sizes near n whose n - 1 steps are C L, and C L + 1 (one step left over)."""
    steps = n - 1 - (n - 1) % chunk(n)
    return steps + 1, steps + 2


# sizes where the chunk length changes (at 36 -> 37 from L = 1 to 2, at 197
# from 3 to 4), whole chunks and one step more (63, 64 and 65, 66 at L = 2)
L_CHANGES = [n for n in range(2, 2**16 + 1) if chunk(n) != chunk(n - 1)]
SCAN_SIZES = (1, 2, L_CHANGES[0] - 1, L_CHANGES[0], L_CHANGES[2],
              *whole_chunks(BLOCK), *whole_chunks(BLOCK + 2), 3000)
# prefix weights log-uniform in [1e-3, 1e3], so that runs of small weights
# (and with them large transients) are common
scan_weights = st.builds(
    lambda prefix, tail: WeightSequence.periodic(tail, tuple(10.0**t for t in prefix)),
    st.lists(st.floats(-3.0, 3.0), max_size=12),
    st.lists(st.floats(0.5, 4.0), min_size=1, max_size=3),
)


@pytest.mark.parametrize("n", SCAN_SIZES)
@settings(max_examples=60, deadline=None)
@given(
    w=scan_weights,
    frac=st.floats(0.0, 0.999),
    theta=st.floats(0.0, 2 * math.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_inner_scan_matches_recurrence(n, w, frac, theta, seed):
    zeta = frac * spectral_profile(w).r2 * cmath.exp(1j * theta)
    rng = np.random.default_rng(seed)
    y = TruncatedVector(rng.standard_normal(n) + 1j * rng.standard_normal(n), n)
    ref = naive_inner(w, zeta, y.coords)
    x = solve_factor_inner(w, zeta, y)
    assert x.size == n and x.exact_prefix == n
    assert np.max(np.abs(x.coords - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_inner_scan_zero_first_block_tiny_prefix():
    # the first chunk's product of zeta / w_k is (99 / 1e-150)^L, past float
    # range, but y vanishes there, so its carry is exactly 0 and x stays 0
    n = 3 * BLOCK
    w = WeightSequence.constant(100.0, (1e-150,) * BLOCK)
    with np.errstate(over="ignore"):
        assert np.prod(99.0 / w.values_array(chunk(n))) == np.inf
    y = TruncatedVector(np.r_[np.zeros(BLOCK), np.ones(2 * BLOCK)], n)
    x = solve_factor_inner(w, 99.0, y)
    ref = naive_inner(w, 99.0, y.coords)
    assert np.all(np.isfinite(x.coords))
    assert np.all(x.coords[: BLOCK + 1] == 0)
    assert np.max(np.abs(x.coords - ref)) <= 1e-12 * np.max(np.abs(ref))


def naive_outer(w, zeta, y):
    """x_N = -y_N / zeta, x_k = (w_k x_{k+1} - y_k) / zeta, one coordinate at a time."""
    out = [-complex(y[-1]) / zeta]
    for k in range(len(y) - 1, 0, -1):
        out.append((w.value(k) * out[-1] - complex(y[k - 1])) / zeta)
    return np.array(out[::-1])


def naive_eigenvector(w, lam, n):
    """e_1 = lam / w_1, e_{k+1} = (lam / w_k) e_k, one coordinate at a time."""
    out = [lam / w.value(1)]
    for k in range(1, n):
        out.append(lam / w.value(k) * out[-1])
    return np.array(out)


@pytest.mark.parametrize("n", [L_CHANGES[-1], *whole_chunks(2**16), 2**16])
def test_scans_match_recurrences_at_long_chunks(n, rng):
    # the largest sizes, where chunks reach their full length
    assert chunk(n) == BLOCK
    w = WeightSequence.periodic(rng.uniform(0.5, 4.0, 3), rng.uniform(0.5, 2.0, 5))
    prof = spectral_profile(w)
    y = TruncatedVector(rng.standard_normal(n) + 1j * rng.standard_normal(n), n)
    turn = cmath.exp(2j * math.pi * rng.uniform())
    for got, ref in [
        (solve_factor_inner(w, 0.9 * prof.r2 * turn, y), naive_inner(w, 0.9 * prof.r2 * turn, y.coords)),
        (solve_factor_outer(w, 1.1 * prof.r1 * turn, y), naive_outer(w, 1.1 * prof.r1 * turn, y.coords)),
        (eigenvector(w, 0.9 * prof.r3 * turn, n), naive_eigenvector(w, 0.9 * prof.r3 * turn, n)),
    ]:
        assert np.max(np.abs(got.coords - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_outer_factor_single_term():
    x = solve_factor_outer(WeightSequence.constant(1.0), 3.0, TruncatedVector.basis(8, 1))
    assert np.allclose(x.coords, [-1 / 3] + [0] * 7)


def test_outer_factor_two_terms():
    x = solve_factor_outer(WeightSequence.constant(1.0), 2.0, TruncatedVector.basis(8, 2))
    expected = np.zeros(8, dtype=complex)
    expected[1] = -0.5
    expected[0] = -0.25
    assert np.allclose(x.coords, expected)


def test_outer_factor_norm_bound():
    x = solve_factor_outer(WeightSequence.constant(2.0), 5.0, TruncatedVector.ones(32))
    assert x.sup_norm() <= 1.0 / (5.0 - 2.0) + 1e-9


def test_outer_factor_rejects_slow_convergence():
    with pytest.raises(ValueError):
        solve_factor_outer(WeightSequence.constant(2.0), 2.0 + 1e-13, TruncatedVector.ones(8))


def series_outer(w, zeta, y, tol):
    """The resolvent series -sum_j zeta^{-(j+1)} B^j y one term at a time,
    with each B^j y held as a unit-sup vector times exp(scale), so that no
    power of zeta or of the weights leaves float range.  Stops at the first
    j with ||B^j y|| / |zeta|^j <= tol, tested in log space, and returns the
    partial sum, its exact prefix, the sup of the dropped terms' sum and the
    sum of every term's sup (the reference's own rounding scale)."""
    n, lz, phase = len(y), math.log(abs(zeta)), zeta / abs(zeta)
    ws = w.values_array(n - 1)
    acc, term, scale = np.zeros(n, dtype=complex), np.array(y, dtype=complex), 0.0
    stop, dropped, total = None, 0.0, 0.0
    for j in range(n + 1):
        top = float(np.max(np.abs(term)))
        if top == 0.0:
            break
        term, scale = term / top, scale + math.log(top)
        if stop is None and j >= 1 and scale - j * lz <= math.log(tol):
            stop = j
        size = math.exp(scale - (j + 1) * lz)
        total += size
        if stop is None:
            acc -= size * phase ** -(j + 1) * term
        else:
            dropped += size
        term = np.append(ws * term[1:], 0j)
    exact = max(0, n - ((stop or max(j, 1)) - 1))
    return acc, exact, dropped, total


tails = st.one_of(
    st.builds(ConstantTail, st.floats(0.5, 4.0)),
    st.builds(lambda v: PeriodicTail(tuple(v)), st.lists(st.floats(0.5, 4.0), min_size=1, max_size=3)),
    st.builds(TwoValueDoublingBlocks, st.floats(0.5, 4.0), st.floats(0.5, 4.0)),
)
# prefix weights log-uniform in [1e-3, 1e3], so that gains w_k / |zeta| far
# above 1 are common ahead of the tail
outer_weights = st.builds(
    lambda prefix, tail: WeightSequence(tuple(10.0**t for t in prefix), tail),
    st.lists(st.floats(-3.0, 3.0), max_size=12),
    tails,
)


@pytest.mark.parametrize("n", SCAN_SIZES)
@settings(max_examples=60, deadline=None)
@given(
    w=outer_weights,
    clearance=st.floats(math.log10(1.01), 2.0),
    theta=st.floats(0.0, 2 * math.pi),
    log_tol=st.floats(-14.0, -2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_outer_scan_matches_series(n, w, clearance, theta, log_tol, seed):
    r1 = spectral_profile(w).r1
    zeta = 10.0**clearance * r1 * cmath.exp(1j * theta)
    tol = min(10.0**log_tol, 0.5 * (abs(zeta) - r1))  # the solver's domain check
    rng = np.random.default_rng(seed)
    y = TruncatedVector(rng.standard_normal(n) + 1j * rng.standard_normal(n), n)
    ref, ref_exact, dropped, total = series_outer(w, zeta, y.coords, tol)
    x = solve_factor_outer(w, zeta, y, tol)
    assert x.size == n and x.exact_prefix <= ref_exact
    p = x.exact_prefix
    assert np.all(np.abs(x.coords[:p] - ref[:p]) <= dropped + 1e-12 * total)
    # (B_w - zeta) x = y on the whole buffer, x_{N+1} = 0 past its end
    shifted = np.append(w.values_array(n - 1) * x.coords[1:], 0j)
    residual = np.abs(shifted - zeta * x.coords - y.coords)
    assert np.max(residual) <= 1e-12 * np.max(np.abs(shifted) + abs(zeta) * np.abs(x.coords) + np.abs(y.coords))


def _windows_per_probe(a, n, count):
    """Log window sums the way every probe of the series cut once built
    them: all doubling levels from scratch, none kept for the next probe."""
    out = np.zeros(count)
    done, length = 0, 1
    while True:
        if n & length:
            np.add(out, a[done : done + count], out=out)
            done += length
        if 2 * length > n:
            return out
        a = np.add(a[:-length], a[length:])
        length *= 2


def reference_series_cut(ws, az, y_norm, tol):
    if y_norm == 0:
        return 1
    n, logs = len(ws) + 1, np.log(ws)
    bound = (math.log(tol) if tol > 0 else -math.inf) - math.log(y_norm)

    def stops(L):
        return L >= n or float(_windows_per_probe(logs, L, n - L).max()) - L * math.log(az) <= bound

    hi = 1
    while not stops(hi):
        hi *= 2
    return bisect.bisect_left(range(hi + 1), True, lo=hi // 2 + 1, key=stops)


@pytest.mark.parametrize("n", [2, 3, 64, 257, 4097])
@pytest.mark.parametrize("kind", ["constant", "periodic", "blocks"])
def test_series_cut_matches_per_probe_reference(n, kind):
    # the closed-form window sup gives the cut L that replaying the
    # buffer's log window sums gives, for prefixes of up to 6 weights in
    # [0.01, 100], |zeta| in (r1, 4 r1) and tol from 1e-15 to 1e-3
    rng = np.random.default_rng(n)
    for _ in range(40):
        prefix = tuple(10.0 ** rng.uniform(-2, 2, int(rng.integers(0, 7))))
        values = rng.uniform(0.5, 4.0, 3)
        w = {"constant": lambda: WeightSequence.constant(values[0], prefix),
             "periodic": lambda: WeightSequence.periodic(values[: int(rng.integers(1, 4))], prefix),
             "blocks": lambda: WeightSequence.doubling_blocks(values[0], values[1], prefix)}[kind]()
        az = spectral_profile(w).r1 * rng.uniform(1.0, 4.0)
        tol, y_norm = 10.0 ** rng.uniform(-15, -3), 10.0 ** rng.uniform(-3, 3)
        ws = w.values_array(n - 1)
        assert dynamics._series_cut(w, n, az, y_norm, tol) == reference_series_cut(ws, az, y_norm, tol)


def test_outer_factor_zero_keeps_prefix():
    x = solve_factor_outer(WeightSequence.constant(2.0), 3.0, TruncatedVector(np.zeros(16), 10))
    assert x.exact_prefix == 10 and np.all(x.coords == 0)


@pytest.mark.parametrize("n", [4096, 65536])
def test_solve_poly_outer_root_near_outer_radius(n):
    # r1 / |zeta| = 0.99: the resolvent sum runs past |zeta|^j = 1e308
    op = const_op(2.0, P(-2.02, 1))
    y = TruncatedVector.ones(n)
    x = solve_poly(op, y)
    assert np.all(np.isfinite(x.coords)) and x.exact_prefix > 0
    back = apply_operator(op, x)
    assert back.exact_prefix > 0 and back.prefix_distance(y) <= 1e-9


def test_solve_poly_identity_reduces_to_preimage():
    w = WeightSequence.constant(2.0)
    y = TruncatedVector.ones(16)
    a = solve_poly(OperatorSpec(w, identity_map()), y)
    b = preimage_power(w, y, 1)
    assert np.allclose(a.coords, b.coords)


def test_solve_poly_inner_roots_round_trip():
    op = const_op(2.0, P(1, 0, 1))  # roots +-i inside the disk of radius 2
    y = TruncatedVector.basis(32, 1)
    x = solve_poly(op, y)
    back = apply_operator(op, x)
    assert back.prefix_distance(y) <= 1e-10


def test_solve_poly_mixed_routing_round_trip():
    op = const_op(1.0, P(0, -3, 1))  # (z - 3) z: root 0 inner, root 3 outer
    y = TruncatedVector.basis(32, 1)
    x = solve_poly(op, y)
    back = apply_operator(op, x)
    assert back.prefix_distance(y) <= 1e-9


def test_solve_poly_random_round_trips(rng):
    done = 0
    while done < 100:
        w = random_weights(rng)
        prof = spectral_profile(w)
        # map with one root well inside and one well outside the annulus
        inner_root = 0.5 * prof.r2 * np.exp(2j * math.pi * rng.uniform())
        outer_root = 2.5 * prof.r1 * np.exp(2j * math.pi * rng.uniform())
        f = P(inner_root * outer_root, -(inner_root + outer_root), 1)
        op = OperatorSpec(w, f)
        y = TruncatedVector(rng.normal(size=48) + 1j * rng.normal(size=48), 48)
        x = solve_poly(op, y)
        back = apply_operator(op, x)
        assert back.prefix_distance(y) <= 1e-8 * max(1.0, y.sup_norm())
        done += 1


def test_solve_poly_root_in_annulus_rejected():
    op = const_op(2.0, P(-2.0, 1))  # root exactly on the annulus circle
    with pytest.raises(RootInAnnulusError):
        solve_poly(op, TruncatedVector.ones(16))


@pytest.mark.parametrize(
    "coeffs, routed",
    [
        ((4.5, -9.5, 1), {"inner": 1, "outer": 1, "zero": 0}),  # (z - 0.5)(z - 9)
        ((0, 0.1, 1), {"inner": 1, "outer": 0, "zero": 1}),  # z (z + 0.1)
        ((0, 1), {"inner": 0, "outer": 0, "zero": 1}),  # the identity
    ],
    ids=["inner_outer", "zero_inner", "identity"],
)
def test_solve_poly_routes_each_root_to_one_public_solver(monkeypatch, coeffs, routed):
    # one solve path: every root goes through exactly one public solver
    calls = dict.fromkeys(routed, 0)
    for kind, name in (("inner", "solve_factor_inner"), ("outer", "solve_factor_outer"),
                       ("zero", "preimage_power")):
        def counted(*args, _fn=getattr(dynamics, name), _kind=kind, **kwargs):
            calls[_kind] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counted)
    solve_poly(const_op(2.0, P(*coeffs)), TruncatedVector.ones(64))
    assert calls == routed


@pytest.mark.parametrize("coeffs", [(0, 0.1, 1), (4.5, -9.5, 1)], ids=["zero_inner", "inner_outer"])
def test_solve_poly_evaluates_only_in_the_polish(monkeypatch, coeffs):
    # routing reads the root disks of the polish, so a solve evaluates the
    # map exactly as often as root finding alone (not once more per root)
    f = P(*coeffs)
    calls, evaluate = [], Polynomial.eval
    monkeypatch.setattr(Polynomial, "eval", lambda self, z, derivative=False:
                        calls.append(z) or evaluate(self, z, derivative))
    f.roots()
    polish = len(calls)
    solve_poly(const_op(2.0, f), TruncatedVector.ones(256))
    assert len(calls) == 2 * polish


def test_witness_computes_the_radii_once_per_sequence(monkeypatch):
    # the router and every factor solve read the radii kept on the weight
    # sequence, so three 5-stage witnesses on one sequence (the identity,
    # z^2 + 0.1z and (z - 0.5)(z - 9)) build its closed-form profile once
    made = []

    class Counted(weights.SpectralProfile):
        def __post_init__(self):
            made.append(self)
            super().__post_init__()

    monkeypatch.setattr(weights, "SpectralProfile", Counted)
    for spec in ({"prefix": [], "tail": {"kind": "constant", "value": 2.0}},
                 {"prefix": [], "tail": {"kind": "periodic", "values": [3.0, 1.5, 2.0]}},
                 {"prefix": [], "tail": {"kind": "blocks", "a": 3.0, "b": 2.0}}):
        w = WeightSequence.from_dict(spec)
        made.clear()
        for coeffs in ((0, 1), (0, 0.1, 1), (4.5, -9.5, 1)):
            mixing_witness(OperatorSpec(w, P(*coeffs)), TruncatedVector.ones(256), 5)
        assert len(made) == 1 and spectral_profile(w) is made[0]


def test_root_radius_evaluates_through_the_map(monkeypatch):
    # each root's radius comes from the f(z) and f'(z) of the polish's last
    # step, an f.eval(z, derivative=True) that the evaluation counters see,
    # so asking for the radii adds no evaluation; the log-derivative form
    # divides by |f'(z)| less its rounding allowance
    f = P(4.5, -9.5, 1)
    calls, evaluate = [], Polynomial.eval
    monkeypatch.setattr(Polynomial, "eval", lambda self, z, derivative=False:
                        calls.append(derivative) or evaluate(self, z, derivative))
    roots = f.roots()
    polish = len(calls)
    again, radii = f.roots(radii=True)
    assert again == roots and calls == [True] * (2 * polish)
    for z, rho in zip(roots, radii):
        fz, dfz, _ = shiftspec.holo._horner_scalar(f.coeffs, z)
        res = abs(fz) + f.eval_round_error(abs(z))
        slope = abs(dfz) - f.derivative_error(abs(z))
        assert slope > 0 and rho == min((res / abs(f.coeffs[-1])) ** 0.5, 2 * res / slope)


# -- mixing witness -------------------------------------------------------------


def test_mixing_witness_constant_two_exact():
    wit = mixing_witness(const_op(2.0), TruncatedVector.ones(64), 5)
    assert wit.ok and wit.n0 == 1 and wit.epsilon == 1.0
    for s in wit.stages:
        assert s.norm == 2.0 ** -s.index  # exact powers of two
        assert s.round_trip_residual == 0.0
        assert s.norm <= s.norm_bound


def test_mixing_witness_scaled_unweighted():
    wit = mixing_witness(const_op(1.0, P(0, 2)), TruncatedVector.basis(64, 1), 6)
    assert wit.ok
    assert [s.norm for s in wit.stages] == [2.0 ** -m for m in range(1, 7)]


def test_mixing_witness_zero_target():
    wit = mixing_witness(const_op(2.0), TruncatedVector.zeros(64), 3)
    assert wit.ok
    assert all(s.norm == 0.0 for s in wit.stages)


def test_mixing_witness_decay_invariant(rng):
    for c in (1.5, 2.0, 3.0):
        wit = mixing_witness(const_op(c), TruncatedVector.ones(128), 6)
        assert wit.ok
        for s in wit.stages:
            assert s.norm <= wit.constant * (1 + wit.epsilon) ** (-s.index * wit.n0) + 1e-12


def test_mixing_witness_stage_chain():
    # z_m is the previous stage vector and pushes forward to the target in
    # (m-1) n0 steps
    op = const_op(2.0)
    y = TruncatedVector.ones(64)
    wit = mixing_witness(op, y, 4)
    for s in wit.stages:
        back = apply_operator(op, s.z, (s.index - 1) * wit.n0)
        assert back.prefix_distance(y) == 0.0


def count_solves(monkeypatch):
    """Record every input handed to a routed solve."""
    calls = []
    route = dynamics._solver

    def counting(op, tol):
        solve = route(op, tol)

        def counted(y):
            calls.append(y)
            return solve(y)

        return counted

    monkeypatch.setattr(dynamics, "_solver", counting)
    return calls


@pytest.mark.parametrize(
    "w, f, n0, solves",
    [
        (WeightSequence.constant(2.0), identity_map(), 1, 3),
        (WeightSequence.periodic([4.0, 1.1]), identity_map(), 2, 6),
        (WeightSequence.periodic([2.0, 1.6, 1.8]), P(0.1, 0, 1), 4, 12),
        (WeightSequence.periodic([3.0, 1.5, 2.0]), P(0, 0.1, 1), 8, 24),
        # no block size contracts at the certified rate: the probe solves up
        # to 8 times, and the 3 stages (n0 = 1) use the first 3 of those
        (WeightSequence.constant(2.0, (1.0,) * 6), identity_map(), 1, 8),
    ],
)
def test_mixing_witness_runs_one_solve_chain(monkeypatch, w, f, n0, solves):
    calls = count_solves(monkeypatch)
    wit = mixing_witness(OperatorSpec(w, f), TruncatedVector.ones(256), 3)
    assert wit.ok and wit.n0 == n0 and len(wit.stages) == 3
    assert len(calls) == solves
    assert len({id(v) for v in calls}) == len(calls)  # no vector solved twice


def test_jset_probes_each_target_once(monkeypatch):
    probes = []
    choose = dynamics._choose_n0
    monkeypatch.setattr(dynamics, "_choose_n0", lambda *a: probes.append(a[1]) or choose(*a))
    calls = count_solves(monkeypatch)
    x = eigenvector(WeightSequence.constant(2.0), 0.5, 256)
    targets = [TruncatedVector.ones(256), TruncatedVector.basis(256, 3)]
    rep = jset_experiment(const_op(2.0), x, targets)
    assert rep.status == MEMBER
    assert probes == targets
    assert len({id(v) for v in calls}) == len(calls)


def test_solves_run_at_budget_tol(monkeypatch):
    assert "tol" not in inspect.signature(mixing_witness).parameters
    tols, route = [], dynamics._solver
    monkeypatch.setattr(dynamics, "_solver", lambda op, tol: tols.append(tol) or route(op, tol))
    budget = Budget(tol=1e-7)
    mixing_witness(const_op(2.0), TruncatedVector.ones(64), 2, budget=budget)
    jset_experiment(const_op(2.0), TruncatedVector.zeros(64), [TruncatedVector.ones(64)], budget=budget)
    assert tols == [1e-7, 1e-7]


def test_mixing_witness_requires_jclass():
    with pytest.raises(ValueError):
        mixing_witness(const_op(1.0), TruncatedVector.ones(16), 2)


def test_mixing_witness_polynomial_map():
    op = const_op(2.0, P(1, 0, 1))
    wit = mixing_witness(op, TruncatedVector.ones(256), 4)
    assert wit.ok
    norms = [s.norm for s in wit.stages]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_mixing_witness_past_float_range_of_rate_power():
    # 2.0 ** m overflows past stage 1024; the stage bound underflows to 0.0
    wit = mixing_witness(const_op(2.0), TruncatedVector.ones(64), 1100)
    assert wit.ok and len(wit.stages) == 1100
    assert wit.stages[-1].norm == 0.0 == wit.stages[-1].norm_bound


def test_scaled_power_keeps_bits_and_survives_overflow():
    # where base**k is a float the product is the plain expression, bit for
    # bit; past that it is taken in logs, and inf only past the float range
    rng = np.random.default_rng(3)
    for _ in range(500):
        c, base, k = rng.uniform(0.0, 1e3), 1.0 + rng.uniform(0.0, 1e3), int(rng.integers(-8, 9))
        plain = c * base**k if k >= 0 else c / base**-k
        assert dynamics._scaled_power(c, base, k) == plain
    assert dynamics._scaled_power(1e-300, 1e80, 5) == pytest.approx(1e100, rel=1e-12)
    assert dynamics._scaled_power(1e100, 1e80, -5) == pytest.approx(1e-300, rel=1e-12)
    assert dynamics._scaled_power(1.0, 1e80, 5) == math.inf
    assert dynamics._scaled_power(0.0, 1e80, 5) == 0.0


def test_decayed_keeps_bits_and_survives_underflow():
    # where rate**-m is a normal float the bound is the plain expression, bit
    # for bit; below that it is taken in logs, and 0.0 only below the range
    rng = np.random.default_rng(5)
    for _ in range(500):
        c, rate, m = rng.uniform(0.0, 1e3), 1.0 + rng.uniform(0.0, 1e3), int(rng.integers(0, 9))
        assert dynamics._decayed(c, rate, math.log(rate), m) == c * rate**-m
    assert 1e80**-5 == 0.0
    assert dynamics._decayed(1e300, 1e80, math.log(1e80), 5) == pytest.approx(1e-100, rel=1e-12)
    # a rate past the float range still decays by its logarithm
    assert dynamics._decayed(1e300, math.inf, 3 * math.log(1e80), 1) == pytest.approx(1e60, rel=1e-12)
    assert dynamics._decayed(1.0, 1e80, math.log(1e80), 5) == 0.0
    assert dynamics._decayed(0.0, 1e80, math.log(1e80), 5) == 0.0


def test_choose_n0_skips_a_chain_that_underflowed():
    # a probe chain whose first solve keeps the norm and whose later links
    # underflowed to 0: at eps = 1e200 the bars for n0 >= 2 are below the
    # float range (0.0), so only the zero check keeps a zero link from passing
    y = TruncatedVector.ones(4)
    links = iter([TruncatedVector.ones(4)] + [TruncatedVector.zeros(4)] * 7)
    n0, chain = dynamics._choose_n0(lambda x: next(links), y, 1e200)
    assert n0 == 1 and len(chain) == 9


def test_choose_n0_stops_at_a_non_finite_link():
    # the probe solves no further once a link overflowed
    y = TruncatedVector.ones(4)
    links = iter([TruncatedVector.ones(4), TruncatedVector.from_list([1, math.inf, 0, 0])])
    n0, chain = dynamics._choose_n0(lambda x: next(links), y, 1e-3)
    assert n0 == 1 and len(chain) == 3


def test_witness_stops_at_the_first_non_finite_stage(monkeypatch):
    # x_3 = (1.99 x_2 + y_2) / 1e-200 with x_2 = 5e197 overflows in the
    # first solve: the witness records nothing, solves no further and
    # computes no round trip, so numpy warns of nothing
    calls = count_solves(monkeypatch)
    op = OperatorSpec(WeightSequence.constant(2.0, (1e-200,) * 2), P(-398, 200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wit = mixing_witness(op, TruncatedVector.ones(256), 5)
    assert not wit.ok and wit.failure == "non-finite norm at stage 1"
    assert wit.stages == () and wit.n0 == 1 and len(calls) == 1


@pytest.mark.parametrize("m_max", [0, -2])
def test_mixing_witness_needs_a_stage(m_max):
    with pytest.raises(ValueError, match="at least one stage"):
        mixing_witness(const_op(2.0), TruncatedVector.ones(16), m_max)


def test_inner_transients_pass_the_witness():
    # certified JCLASS maps whose solves run through small prefix weights:
    # the round trips of most draws miss 1e-6 ||y||, by the rounding of
    # solves of that size, and must pass on the rounding allowance
    rng = np.random.default_rng(24)
    past_bar = 0
    for draw in range(300):
        wit = mixing_witness(inner_transient_instance(rng), TruncatedVector.ones(256), 5)
        assert wit.ok, (draw, wit.failure)
        past_bar += any(s.round_trip_residual > 1e-6 for s in wit.stages)
    assert past_bar >= 100


def test_round_trip_allowance_only_past_the_bar(monkeypatch):
    # a residual within 1e-6 max(1, ||y||) never computes the allowance, and
    # one past it fails where the allowance is smaller
    allowances = []
    allowance = dynamics._round_trip_allowance
    monkeypatch.setattr(dynamics, "_round_trip_allowance", lambda op, solve, prev, x, n0:
                        allowances.append(x.size) or allowance(op, solve, prev, x, n0))
    y = TruncatedVector(np.random.default_rng(4).standard_normal(256) + 0j, 256)
    for f in (identity_map(), P(0, 0.1, 1), P(4.5, -9.5, 1)):
        assert mixing_witness(OperatorSpec(WeightSequence.periodic([3.0, 1.5, 2.0]), f), y, 5).ok
    assert allowances == []
    op = OperatorSpec(WeightSequence.constant(2.0, (0.01,) * 5), P(-398, 200))
    assert mixing_witness(op, TruncatedVector.ones(256), 3).ok
    assert allowances == [256] * 3
    monkeypatch.setattr(dynamics, "_round_trip_allowance", lambda *a: 0.0)
    wit = mixing_witness(op, TruncatedVector.ones(256), 3)
    assert wit.failure == "round trip residual 0.0001220703125 at stage 1"


def test_round_trip_allowance_follows_the_routed_roots(monkeypatch):
    # the allowance reads the roots in the order solve routed them and
    # polishes none again: one polish per witness, however many allowances
    op = OperatorSpec(WeightSequence.constant(2.0, (0.01,) * 5), P(-398, 200))
    polishes, roots = [], Polynomial.roots
    monkeypatch.setattr(Polynomial, "roots", lambda f, *a, **k: polishes.append(f) or roots(f, *a, **k))
    allowances, allowance = [], dynamics._round_trip_allowance
    monkeypatch.setattr(dynamics, "_round_trip_allowance", lambda op, solve, *a:
                        allowances.append(solve.routed) or allowance(op, solve, *a))
    assert mixing_witness(op, TruncatedVector.ones(256), 3).ok
    assert len(polishes) == 1 and allowances == [([], [1.99 + 0j])] * 3
    outer_inner = OperatorSpec(WeightSequence.constant(2.0), P(4.5, -9.5, 1))
    assert dynamics._solver(outer_inner, 1e-9).routed == ([9 + 0j], [0.5 + 0j])


@pytest.mark.xfail(strict=True, reason="the witness fits its constant over 4 stages, which a "
                   "6-weight prefix outlasts: C = 16, the true constant is 64 (ROADMAP Fix first 2)")
def test_mixing_witness_long_prefix():
    op = OperatorSpec(WeightSequence.constant(2.0, (1.0,) * 6), identity_map())
    wit = mixing_witness(op, TruncatedVector.ones(256), 10)
    assert wit.ok, wit.failure


LONG_N = 65536
HEAVY_WEIGHTS = [
    WeightSequence.constant(1e3),
    WeightSequence.periodic([2.0, 1e3, 7.0], prefix=[0.5]),
    WeightSequence.doubling_blocks(1.5, 1e3),
]


@pytest.mark.parametrize("w", HEAVY_WEIGHTS)
def test_preimage_power_long_truncation_round_trips(w):
    y = TruncatedVector.ones(LONG_N)
    for n0 in (1, 3, 8):
        x = preimage_power(w, y, n0)
        assert np.all(np.isfinite(x.coords))
        back = shift_power(w, x, n0)
        assert back.prefix_distance(y) <= 1e-15


@pytest.mark.parametrize("w", HEAVY_WEIGHTS)
@pytest.mark.parametrize("f", [identity_map(), P(0, 0.1, 1)])
def test_solve_poly_long_truncation_round_trips(w, f):
    op = OperatorSpec(w, f)
    y = TruncatedVector.ones(LONG_N)
    x = solve_poly(op, y)
    assert np.all(np.isfinite(x.coords))
    assert apply_operator(op, x).prefix_distance(y) <= 1e-12


@pytest.mark.parametrize("w", HEAVY_WEIGHTS)
def test_mixing_witness_long_truncation(w):
    op = OperatorSpec(w, identity_map())
    wit = mixing_witness(op, TruncatedVector.ones(LONG_N), 4)
    assert wit.ok and len(wit.stages) == 4
    for s in wit.stages:
        assert math.isfinite(s.norm) and 0.0 < s.norm <= s.norm_bound * (1 + 1e-9)
        assert s.round_trip_residual <= 1e-12


@pytest.mark.parametrize("c, n", [(20.0, 256), (2.0, 2048)])
def test_mixing_witness_overflowing_windows_never_pass(c, n):
    # c^n exceeds the float range; a witness may only pass on finite stage
    # norms and residuals
    with np.errstate(over="ignore", invalid="ignore"):
        wit = mixing_witness(const_op(c), TruncatedVector.ones(n), 5)
    assert math.isfinite(wit.constant)
    for s in wit.stages:
        assert math.isfinite(s.norm) and math.isfinite(s.round_trip_residual)
    if wit.ok:
        assert len(wit.stages) == 5
    else:
        assert wit.failure


# -- lean kernels: same bits as the allocating formulations ------------------


def allocating_windows(a, n, count):
    """Window products with fresh doubling levels and a copy of the lowest
    selected level, even for n = 1."""
    out, done, length = None, 0, 1
    while True:
        if n & length:
            if out is None:
                out = a[:count].copy()
            else:
                np.multiply(out, a[done : done + count], out=out)
            done += length
        if 2 * length > n:
            return out
        a = np.multiply(a[:-length], a[length:])
        length *= 2


def allocating_preimage(w, z, n0):
    size = z.size
    out = np.zeros(size, dtype=complex)
    out[n0:] = z.coords[: size - n0] / allocating_windows(w.values_array(size - 1), n0, size - n0)
    return TruncatedVector(out, min(size, z.exact_prefix + n0))


def allocating_inner(w, zeta, y):
    ws = w.values_array(y.size - 1)
    x = np.empty(y.size, dtype=complex)
    x[:1] = 0.0
    np.divide(y.coords[:-1], ws, out=x[1:])
    dynamics._affine_scan(zeta / ws, x)
    return TruncatedVector(x, min(y.size, y.exact_prefix + 1))


def allocating_outer(w, zeta, y, tol):
    ws = w.values_array(y.size - 1)
    x = np.divide(y.coords, -zeta)
    dynamics._affine_scan((ws / zeta)[::-1], x[::-1])
    cut = reference_series_cut(ws, abs(zeta), y.sup_norm_full(), tol)
    return TruncatedVector(x, max(0, y.exact_prefix - (cut - 1)))


def signed_zero_target(n, seed, nan):
    """A random target with +0.0 and -0.0 parts, both parts zero in every
    sign pattern, and a NaN if asked."""
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    parts = coords.view(float)
    for sign_re, sign_im in ((1, 1), (1, -1), (-1, 1), (-1, -1), (-1, None), (None, -1), (1, None)):
        k = int(rng.integers(0, n))
        if sign_re is not None:
            parts[2 * k] = math.copysign(0.0, sign_re)
        if sign_im is not None:
            parts[2 * k + 1] = math.copysign(0.0, sign_im)
    if nan:
        parts[int(rng.integers(0, 2 * n))] = math.nan
    return TruncatedVector(coords, n)


def outcome(fn):
    """Bits of a vector result with its prefix."""
    x = fn()
    return x.coords.tobytes(), x.exact_prefix


LEAN_WEIGHTS = WeightSequence.periodic([3.0, 1.5, 2.0], prefix=[0.7])
LEAN_MAPS = [  # identity, inner roots only, one inner and one outer root; monic and not
    P(0, 1), P(0, 2), P(0, 0.1, 1), P(0, 0.3, 3), P(4.5, -9.5, 1), P(9, -19, 2)]


@pytest.mark.parametrize("n", [1, 2, 257, 65536])
@pytest.mark.parametrize("nan", [False, True])
def test_lean_kernels_match_allocating_formulations(monkeypatch, n, nan):
    # every value, signed zero and NaN of the kernels that write into their
    # output buffer equals that of the formulations that allocate a
    # temporary per step and divide by the leading coefficient unless it
    # is 1 (a monic map takes y itself, signed zeros and NaN included)
    y = signed_zero_target(n, n, nan)
    lean = [outcome(lambda: preimage_power(LEAN_WEIGHTS, y, n0)) for n0 in range(1, 9)]
    lean += [outcome(lambda: solve_poly(OperatorSpec(LEAN_WEIGHTS, f), y)) for f in LEAN_MAPS]
    monkeypatch.setattr(dynamics, "preimage_power", allocating_preimage)
    monkeypatch.setattr(dynamics, "solve_factor_inner", allocating_inner)
    monkeypatch.setattr(dynamics, "solve_factor_outer", allocating_outer)
    want = [outcome(lambda: allocating_preimage(LEAN_WEIGHTS, y, n0)) for n0 in range(1, 9)]
    want += [outcome(lambda: solve_poly(OperatorSpec(LEAN_WEIGHTS, f), y)) for f in LEAN_MAPS]
    assert lean == want


# -- allocations at n = 65536 ---------------------------------------------


def traced_peak(fn) -> int:
    """Peak bytes traced while fn runs, after a warm-up call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MB = 2**20


def test_large_solves_allocate_no_vector_sized_temporaries():
    # a complex vector of 65536 coordinates is 1 MB and its weights 0.5 MB:
    # an identity solve and a plain preimage hold the output and the
    # weights (the allocating formulations peaked at 3.63 and 2.63 MB), and
    # z^2 + 0.1z one more output between its two factor solves (3.66 MB)
    w = WeightSequence.constant(2.0)
    rng = np.random.default_rng(7)
    y = TruncatedVector(rng.standard_normal(LONG_N) + 1j * rng.standard_normal(LONG_N), LONG_N)
    assert traced_peak(lambda: solve_poly(OperatorSpec(w, identity_map()), y)) <= 1.75 * MB
    assert traced_peak(lambda: preimage_power(w, y, 1)) <= 1.75 * MB
    assert traced_peak(lambda: solve_poly(OperatorSpec(w, P(0, 0.1, 1)), y)) <= 2.75 * MB


def test_outer_solve_holds_no_log_levels():
    # the exact-prefix cut reads the closed-form window sup, so an outer
    # solve holds its output, the weights and their complex step factors
    # (replaying the buffer's log doubling levels peaked at 5.0 MB)
    rng = np.random.default_rng(7)
    y = TruncatedVector(rng.standard_normal(LONG_N) + 1j * rng.standard_normal(LONG_N), LONG_N)
    assert traced_peak(lambda: solve_factor_outer(WeightSequence.constant(0.5), 3.0, y)) <= 2.75 * MB


# -- eigenvectors ------------------------------------------------------------


def test_eigenvector_constant_weights_closed_form():
    ev = eigenvector(WeightSequence.constant(2.0), 1.0, 8)
    assert np.allclose(ev.coords, [2.0 ** -k for k in range(1, 9)])


def test_eigenvector_zero_lambda():
    ev = eigenvector(WeightSequence.constant(2.0), 0.0, 8)
    assert np.all(ev.coords == 0)


@pytest.mark.parametrize("prefix, exact", [((1e-308,), 0), ((1e-300, 1e-10), 1)])
def test_eigenvector_overflow_ends_the_exact_prefix(prefix, exact):
    # lambda = 1.9 is below r3 = 2, but a coordinate 1.9^k / (w_1 ... w_k)
    # passes the float range: no warning, and the exact prefix stops there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = eigenvector(WeightSequence(prefix, ConstantTail(2.0)), 1.9, 16)
    assert ev.exact_prefix == exact
    assert np.isfinite(ev.coords[:exact]).all() and not np.isfinite(ev.coords[exact])
    assert ev.coords[:exact].tolist() == [1.9 / 1e-300][:exact]


def test_eigenvector_rejects_large_lambda():
    with pytest.raises(ValueError):
        eigenvector(WeightSequence.constant(2.0), 2.0, 8)


def test_eigenvector_identity_random(rng):
    # shift applied to e_lambda equals lambda e_lambda, coordinatewise exact
    for _ in range(50):
        w = random_weights(rng)
        prof = spectral_profile(w)
        lam = 0.9 * prof.r3 * rng.uniform() * np.exp(2j * math.pi * rng.uniform())
        ev = eigenvector(w, complex(lam), 64)
        shifted = shift_power(w, ev, 1)
        resid = np.max(np.abs(shifted.coords[:63] - lam * ev.coords[:63]))
        assert resid <= 1e-12


def test_eigenvector_decay(rng):
    for _ in range(10):
        w = random_weights(rng)
        prof = spectral_profile(w)
        ev = eigenvector(w, 0.7 * prof.r3, 256)
        mags = np.abs(ev.coords)
        assert mags[-1] <= 1e-6 * max(1.0, mags.max())
        # eventually monotone decay
        tail = mags[128:]
        assert np.all(np.diff(tail) <= 1e-15 + tail[:-1] * 0.999)


@pytest.mark.parametrize("n", SCAN_SIZES)
@settings(max_examples=20, deadline=None)
@given(
    w=scan_weights,
    # lambda / w_1 is exact to rounding only above the subnormal range
    frac=st.just(0.0) | st.floats(1e-9, 0.999),
    theta=st.floats(0.0, 2 * math.pi),
)
def test_eigenvector_scan_identity_coordinatewise(n, w, frac, theta):
    # w_k e_{k+1} = lambda e_k to rounding at every coordinate, e_1 = lambda / w_1
    lam = frac * spectral_profile(w).r3 * cmath.exp(1j * theta)
    e = eigenvector(w, lam, n).coords
    ws = w.values_array(n)
    assert np.all(np.isfinite(e))
    assert abs(e[0] * ws[0] - lam) <= 1e-13 * abs(lam)
    rhs = lam * e[:-1]
    assert np.all(np.abs(ws[:-1] * e[1:] - rhs) <= 1e-12 * np.abs(rhs) + 1e-300)


def test_eigenvalue_transport_through_map(rng):
    # the polynomial image sends e_lambda to f(lambda) e_lambda
    for _ in range(20):
        w = random_weights(rng)
        prof = spectral_profile(w)
        lam = complex(0.6 * prof.r3 * np.exp(2j * math.pi * rng.uniform()))
        f = P(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        ev = eigenvector(w, lam, 64)
        out = apply_operator(OperatorSpec(w, f), ev)
        expect = f.eval(lam) * ev.coords[: out.exact_prefix]
        resid = np.max(np.abs(out.coords[: out.exact_prefix] - expect))
        assert resid <= 1e-10 * max(1.0, float(np.max(np.abs(expect))))


# -- span approximation --------------------------------------------------------


def test_span_self_target():
    w = WeightSequence.constant(2.0)
    lam = 0.5
    fit = span_approximate(w, eigenvector(w, lam, 32), [lam], 32)
    assert fit.residual_sup <= 1e-14
    assert fit.coefficients[0] == pytest.approx(1.0)


def test_span_basis_vector():
    w = WeightSequence.constant(2.0)
    grid = [np.exp(2j * math.pi * k / 20) for k in range(20)]  # radius 0.5 * r3
    fit = span_approximate(w, TruncatedVector.basis(32, 1), grid, 32)
    assert fit.residual_sup <= 1e-6


def test_span_difference_vector():
    w = WeightSequence.constant(2.0)
    grid = [np.exp(2j * math.pi * k / 20) for k in range(20)]
    target = TruncatedVector.from_list([1, -1] + [0] * 30)
    fit = span_approximate(w, target, grid, 32)
    assert fit.residual_sup <= 1e-5
    assert fit.condition > 1.0  # conditioning reported, not raised


# -- extended limit set experiments ---------------------------------------------


def test_jset_membership_eigenvector_start():
    op = const_op(2.0)
    x = eigenvector(WeightSequence.constant(2.0), 0.5, 256)
    rep = jset_experiment(op, x, [TruncatedVector.ones(256)])
    assert rep.status == MEMBER
    assert rep.memberships[0].final_error <= 1e-6
    # approximants converge to the start vector
    dists = [d for _, d, _ in rep.memberships[0].stages]
    assert dists[-1] < dists[0]


def test_jset_membership_zero_start():
    rep = jset_experiment(const_op(2.0), TruncatedVector.zeros(256), [TruncatedVector.ones(256)])
    assert rep.status == MEMBER
    assert rep.memberships[0].final_error == 0.0


def test_membership_without_stages_serializes_strictly():
    from shiftspec.dynamics import INCONCLUSIVE, MembershipCertificate

    cert = MembershipCertificate(0, INCONCLUSIVE, (), math.inf)
    assert cert.to_dict()["finalError"] is None


def test_jset_growth_diagnostic_constant_vector():
    rep = jset_experiment(const_op(2.0), TruncatedVector.ones(256), [])
    assert rep.status == HEURISTIC_NONMEMBER
    assert rep.growth.measured_rate == pytest.approx(rep.growth.certified_rate, rel=0.1)


def test_jset_growth_probe_is_deterministic_and_keeps_its_steps():
    op, x = const_op(2.0, P(0, 0, 1)), TruncatedVector.ones(256)
    first, second = (jset_experiment(op, x, []).growth for _ in range(2))
    assert first == second
    # the floor of 4 steps does not bind here: min(20, (256 - 8) // 2)
    assert first.steps == 20
    assert first.measured_rate == pytest.approx(4.0, rel=1e-3)


@pytest.mark.parametrize("prefix", [8, 12, 16])
def test_jset_growth_probe_refuses_a_prefix_its_steps_would_exhaust(prefix):
    # 4 steps of x^4 shift 16 coordinates out of the exact prefix
    op = const_op(2.0, P(0, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="exact prefix"):
        jset_experiment(op, TruncatedVector.ones(prefix), [])


def test_jset_growth_probe_at_the_shortest_prefix():
    op = const_op(2.0, P(0, 0, 0, 0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        growth = jset_experiment(op, TruncatedVector.ones(20), []).growth
    assert growth.steps == 4 and growth.certified_rate == 16.0
    assert growth.measured_rate == pytest.approx(16.0, rel=0.1)


def test_jset_requires_jclass():
    with pytest.raises(ValueError):
        jset_experiment(const_op(1.0), TruncatedVector.zeros(64), [])


def test_orbit_envelope_rows():
    from shiftspec.dynamics import orbit_envelope

    rows = list(orbit_envelope(const_op(2.0), TruncatedVector.ones(64), 8))
    assert rows[0] == (0, 1.0, 1.0)
    assert [r[0] for r in rows] == list(range(9))
    # constant weights double both envelopes per step
    assert rows[3][2] == pytest.approx(8.0)
    short = list(orbit_envelope(const_op(2.0), TruncatedVector.ones(4), 10))
    assert len(short) == 4  # stops when the exact prefix runs out
