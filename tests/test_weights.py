import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftspec.weights as weights
from conftest import naive_kappa_scan, naive_window_product, random_weights
from shiftspec.weights import (
    ConstantTail,
    PeriodicTail,
    TwoValueDoublingBlocks,
    WeightSequence,
    kappa_forward_power,
    log_kappa_forward_power,
    log_window_products,
    log_window_sup,
    spectral_profile,
    window_product,
    window_products,
)
from shiftspec.weights import _windows


@dataclass(frozen=True)
class Estimate:
    """Radii (r1, r2, r3) measured by a window sweep, with the spread
    between its half- and full-budget values."""

    r1: float
    r2: float
    r3: float
    spread: float

    def __post_init__(self):
        # the closed forms' ordering r2 <= r3 <= r1, widened by the spread
        slack = 1e-9 * max(1.0, self.r1) + 4.0 * self.spread
        if not (-slack <= self.r3 - self.r2 and -slack <= self.r1 - self.r3):
            raise ValueError(
                f"radius ordering violated: r2={self.r2} r3={self.r3} r1={self.r1}"
            )


def estimate_profile(
    w: WeightSequence,
    n_max: int = 128,
    k_max: int = 4096,
    run_len: int = 4096,
) -> Estimate:
    """Numeric window-sweep estimate of (r1, r2, r3), the independent oracle
    for the closed forms of ``spectral_profile``.

    r1 is estimated as min over n of sup_k and r2 as max over n of inf_k of
    the n-th-root window means (both one-sided approximations of their
    limits), r3 as the minimum running mean over the last seven eighths of
    the run.  The spread between the half-budget and full-budget values is
    reported; a spread above the caller's tolerance signals non-convergence
    at this budget.
    """
    logs = np.log(w.values_array(max(k_max + n_max - 1, run_len)))
    log_r1 = math.inf
    log_r2 = -math.inf
    log_r1_half = log_r2_half = None
    sums = np.zeros(k_max)  # log windows of length n, one weight added per n
    for n in range(1, n_max + 1):
        sums += logs[n - 1 : n - 1 + k_max]
        means = sums / n
        log_r1 = min(log_r1, float(means.max()))
        log_r2 = max(log_r2, float(means.min()))
        if n == n_max // 2:
            log_r1_half, log_r2_half = log_r1, log_r2

    running = np.cumsum(logs[:run_len]) / np.arange(1, run_len + 1)
    log_r3 = float(running[run_len // 8 :].min())
    log_r3_half = float(running[run_len // 16 : run_len // 2].min())

    r1, r2 = math.exp(log_r1), math.exp(log_r2)
    r3 = math.exp(max(log_r2, min(log_r3, log_r1)))
    spread = max(
        abs(r1 - math.exp(log_r1_half)),
        abs(r2 - math.exp(log_r2_half)),
        abs(r3 - math.exp(log_r3_half)),
    )
    return Estimate(r1, r2, r3, float(spread))


def test_indexing_constant_and_prefix():
    w = WeightSequence.constant(2.0, prefix=[4.0, 0.5])
    assert [w.value(k) for k in range(1, 6)] == [4.0, 0.5, 2.0, 2.0, 2.0]


def test_indexing_periodic():
    w = WeightSequence.periodic([4.0, 1.0])
    assert [w.value(k) for k in range(1, 7)] == [4.0, 1.0, 4.0, 1.0, 4.0, 1.0]


def test_indexing_doubling_blocks():
    w = WeightSequence.doubling_blocks(2.0, 1.0)
    # blocks: a | bb | aaaa | bbbbbbbb | ...
    expected = [2, 1, 1, 2, 2, 2, 2] + [1] * 8 + [2] * 16
    assert [w.value(k) for k in range(1, 32)] == expected[:31]


def test_values_array_matches_pointwise():
    # prefixes of 0-3 weights before every tail kind, periods 1-4; the
    # longest array crosses every block and period boundary below 2^16
    tails = [ConstantTail(2.0), TwoValueDoublingBlocks(3.0, 0.5)]
    tails += [PeriodicTail((1.5, 2.5, 3.5, 4.5)[:p]) for p in range(1, 5)]
    for p in range(4):
        for tail in tails:
            w = WeightSequence((0.3, 0.6, 0.9)[:p], tail)
            ref = [w.value(k) for k in range(1, 2**16)]
            for n in (0, 1, 2, 3, 64, 1000, 4097, 65535):
                assert w.values_array(n).tolist() == ref[:n]


def test_positivity_enforced():
    with pytest.raises(ValueError):
        WeightSequence.constant(-1.0)
    with pytest.raises(ValueError):
        WeightSequence.periodic([1.0, 0.0])
    with pytest.raises(ValueError):
        WeightSequence.constant(2.0, prefix=[1.0, -0.5])


def test_boundedness_by_sampling(rng):
    for _ in range(20):
        w = random_weights(rng)
        bound = w.upper_bound()
        ks = rng.integers(1, 5000, size=50)
        assert all(w.value(int(k)) <= bound + 1e-12 for k in ks)


def test_window_product_examples():
    assert window_product(WeightSequence.constant(2.0), 1, 3) == pytest.approx(8.0)
    w = WeightSequence.constant(1.0, prefix=[4.0])
    assert window_product(w, 1, 2) == pytest.approx(4.0)
    # multiply four terms by hand: 4*1*4*1
    assert window_product(WeightSequence.periodic([4.0, 1.0]), 1, 4) == pytest.approx(16.0)


def test_window_product_against_naive_oracle(rng):
    for _ in range(50):
        w = random_weights(rng)
        k = int(rng.integers(1, 40))
        n = int(rng.integers(1, 20))
        assert window_product(w, k, n) == pytest.approx(
            naive_window_product(w, k, n), rel=1e-12
        )


def test_window_products_against_naive_oracle(rng):
    kinds = [
        WeightSequence.constant(rng.uniform(0.6, 3.0), prefix=rng.uniform(0.6, 3.0, 3)),
        WeightSequence.periodic(rng.uniform(0.6, 3.0, 3), prefix=rng.uniform(0.6, 3.0, 2)),
        WeightSequence.doubling_blocks(0.7, 2.9, prefix=rng.uniform(0.6, 3.0, 1)),
    ]
    for w in kinds:
        for n in range(1, 65):
            got = window_products(w, n, 40)
            want = [naive_window_product(w, k, n) for k in range(1, 41)]
            assert got == pytest.approx(want, rel=1e-12)
        # log space, far out and over windows whose direct products overflow
        for n in (1, 5, 7, 64, 135, 999, 2000):
            got = log_window_products(w, n, 3000)
            for k in (1, 2, 7, 1024, 2999, 3000):
                want = math.fsum(math.log(w.value(i)) for i in range(k, k + n))
                assert got[k - 1] == pytest.approx(want, rel=1e-14, abs=1e-15 * n)


def windows_from_identity(a, n, count, op):
    """The doubling reduction started from op's identity, one more op per
    window than the set bits of n need."""
    out = np.full(count, float(op.identity))
    done, length = 0, 1
    while True:
        if n & length:
            op(out, a[done : done + count], out=out)
            done += length
        if 2 * length > n:
            return out
        a = op(a[:-length], a[length:])
        length *= 2


# 0, then lengths with 1, 2, 3 and 4 set bits, two of each
@pytest.mark.parametrize("n", [0, 1, 64, 3, 40, 7, 70, 15, 1170])
def test_windows_start_from_first_level(rng, n):
    # starting from the lowest selected level gives the identity start's
    # bits: 1.0 * x and 0.0 + x are x for positive weights and their logs
    a = rng.uniform(0.3, 3.0, 300 + n)
    for op, values in ((np.multiply, a), (np.add, np.log(a))):
        got = _windows(values, n, 300, op)
        assert np.array_equal(got, windows_from_identity(values, n, 300, op))
        assert got is not values and not np.shares_memory(got, values)


def test_window_product_keeps_no_cache():
    w = WeightSequence.periodic([4.0, 1.0], prefix=[3.0])
    tracemalloc.start()
    try:
        assert window_product(w, 2**20, 3) == pytest.approx(16.0, rel=1e-14)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_window_product_no_overflow_for_long_windows():
    w = WeightSequence.constant(4.0)
    # stays finite in log space even where the plain product overflows
    assert math.isfinite(log_kappa_forward_power(w, 2000))
    assert log_kappa_forward_power(w, 2000) == pytest.approx(2000 * math.log(4.0))


_weight = st.floats(1e-3, 1e3)
_tail = st.one_of(
    st.builds(ConstantTail, _weight),
    st.lists(_weight, min_size=1, max_size=5).map(lambda v: PeriodicTail(tuple(v))),
    st.builds(TwoValueDoublingBlocks, _weight, _weight),
)


@settings(max_examples=400, deadline=None)
@given(
    prefix=st.lists(_weight, max_size=8),
    tail=_tail,
    n=st.one_of(st.integers(1, 12), st.integers(1, 300)),
    count=st.one_of(st.integers(1, 12), st.integers(1, 5000)),
)
def test_log_window_sup_matches_the_buffer_max(prefix, tail, n, count):
    # windows that start in the prefix, straddle it or lie in the tail,
    # counts below one period and past many doubling blocks: the closed-form
    # sup is the max of the buffer's log window sums to a relative 1e-13 of
    # the largest sum of |log w| over a window, the scale of their rounding
    w = WeightSequence(tuple(prefix), tail)
    ref = float(log_window_products(w, n, count).max())
    scale = n * float(np.abs(np.log(w.values_array(count + n - 1))).max())
    assert abs(log_window_sup(w, n, count) - ref) <= 1e-13 * scale


def test_one_weight_windows_are_the_weights(monkeypatch):
    # a window of one weight is the weights array itself: no doubling level
    built, levels = [], weights._doubling_levels
    monkeypatch.setattr(weights, "_doubling_levels",
                        lambda *args, **kwargs: built.append(args) or levels(*args, **kwargs))
    for w in (WeightSequence.constant(2.0, prefix=[0.5]), WeightSequence.periodic([3.0, 1.5, 2.0]),
              WeightSequence.doubling_blocks(3.0, 2.0)):
        for count in (1, 255, 4096):
            assert window_products(w, 1, count).tolist() == w.values_array(count).tolist()
    assert built == []


def test_spectral_profile_constant():
    prof = spectral_profile(WeightSequence.constant(2.0))
    assert (prof.r1, prof.r2, prof.r3) == (2.0, 2.0, 2.0)
    assert prof.to_dict()["exactness"] == "EXACT"


def test_spectral_profile_periodic_geomean():
    prof = spectral_profile(WeightSequence.periodic([4.0, 1.0]))
    assert prof.r1 == pytest.approx(2.0)
    assert prof.r2 == pytest.approx(2.0)
    assert prof.r3 == pytest.approx(2.0)
    # numeric sweep confirms the closed form
    est = estimate_profile(WeightSequence.periodic([4.0, 1.0]), n_max=64)
    assert est.r2 == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("w, r2", [
    (WeightSequence.periodic([4.0, 1.0]), 2.0),
    (WeightSequence.constant(1.3, prefix=[2.0]), 1.3),
])
def test_estimate_profile_r2_to_rounding(w, r2):
    # window sums are taken afresh for every start, not as differences of
    # one cumulative sum, so no digits are lost far from the first weight
    assert abs(estimate_profile(w).r2 - r2) <= 1e-14 * r2


def test_spectral_profile_blocks():
    prof = spectral_profile(WeightSequence.doubling_blocks(2.0, 1.0))
    assert prof.r1 == 2.0
    assert prof.r2 == 1.0
    est = estimate_profile(WeightSequence.doubling_blocks(2.0, 1.0), n_max=64, k_max=4096)
    assert 1.9 <= est.r1 <= 2.0 + 1e-9
    assert 1.0 - 1e-9 <= est.r2 <= 1.05


@pytest.mark.parametrize(
    "a,b",
    [(2.0, 1.0), (1.0, 2.0), (3.0, 0.7), (1.3, 1.3), (0.8, 2.5)],
)
def test_blocks_r3_closed_form_validated_numerically(a, b):
    # the closed form must agree with the running-mean estimator before
    # being trusted; the estimator is the independent oracle here
    w = WeightSequence.doubling_blocks(a, b)
    prof = spectral_profile(w)
    hi, lo = max(a, b), min(a, b)
    assert prof.r3 == pytest.approx(hi ** (1 / 3) * lo ** (2 / 3), rel=1e-12)
    est = estimate_profile(w, n_max=32, k_max=2048, run_len=4096)
    assert est.r3 == pytest.approx(prof.r3, rel=5e-3)


def test_blocks_r3_with_prefix_unchanged():
    w = WeightSequence.doubling_blocks(2.0, 1.0, prefix=[5.0, 0.3])
    prof = spectral_profile(w)
    est = estimate_profile(w, n_max=32, k_max=2048, run_len=8192)
    assert est.r3 == pytest.approx(prof.r3, rel=5e-3)


def test_profile_ordering_invariant(rng):
    for _ in range(50):
        prof = spectral_profile(random_weights(rng))
        assert prof.r2 <= prof.r3 + 1e-12
        assert prof.r3 <= prof.r1 + 1e-12


def test_periodic_estimate_agrees_within_tolerance(rng):
    for _ in range(10):
        period = rng.uniform(0.5, 3.0, int(rng.integers(1, 5)))
        w = WeightSequence.periodic(period)
        exact = spectral_profile(w)
        est = estimate_profile(w, n_max=128)
        assert abs(est.r1 - exact.r1) < 1e-3
        assert abs(est.r2 - exact.r2) < 1e-3


def test_kappa_examples():
    assert kappa_forward_power(WeightSequence.constant(2.0), 3) == pytest.approx(8.0)
    assert kappa_forward_power(WeightSequence.periodic([4.0, 1.0]), 1) == pytest.approx(1.0)
    # a pure run of 1's of length 5 exists once 1-blocks reach length 8
    w = WeightSequence.doubling_blocks(2.0, 1.0)
    assert kappa_forward_power(w, 5) == pytest.approx(1.0)
    assert naive_kappa_scan(w, 5) == pytest.approx(1.0)


def test_kappa_against_direct_scan(rng):
    for _ in range(30):
        w = random_weights(rng)
        n = int(rng.integers(1, 7))
        assert kappa_forward_power(w, n) == pytest.approx(
            naive_kappa_scan(w, n), rel=1e-10
        )


def test_kappa_submultiplicative(rng):
    # inf_k P(k, m+n) >= inf_k P(k, m) * inf_k P(k, n)
    for _ in range(100):
        w = random_weights(rng)
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        lhs = log_kappa_forward_power(w, m + n)
        rhs = log_kappa_forward_power(w, m) + log_kappa_forward_power(w, n)
        assert lhs >= rhs - 1e-9


def test_kappa_root_sweep_sandwiched_by_radii():
    # kappa(n)^(1/n) never exceeds r2 and its sup reaches r2 for clean tails
    cases = [
        WeightSequence.constant(2.0),
        WeightSequence.constant(2.0, prefix=[4.0]),  # prefix above the tail
        WeightSequence.periodic([4.0, 1.0]),
        WeightSequence.periodic([1.0, 2.0, 3.0]),
        WeightSequence.doubling_blocks(2.0, 1.0),
        WeightSequence.doubling_blocks(0.7, 1.9),
    ]
    for w in cases:
        prof = spectral_profile(w)
        roots = [math.exp(log_kappa_forward_power(w, n) / n) for n in range(1, 65)]
        assert max(roots) <= prof.r2 + 1e-9
        assert max(roots) >= prof.r2 - 1e-6


def test_serialization_round_trip(rng):
    for _ in range(20):
        w = random_weights(rng)
        assert WeightSequence.from_dict(w.to_dict()) == w
    d = WeightSequence.periodic([4, 1], prefix=[2]).to_dict()
    assert d == {"prefix": [2.0], "tail": {"kind": "periodic", "values": [4.0, 1.0]}}


def test_tail_kinds_rejected():
    with pytest.raises(ValueError):
        WeightSequence.from_dict({"prefix": [], "tail": {"kind": "mystery"}})
