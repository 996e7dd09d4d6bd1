"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every tolerance is pinned here, not configurable.
"""
import math
import time

import numpy as np
import pytest

from conftest import perturbation_flips, random_instance, random_weights
from shiftspec.budget import Budget
from shiftspec.dynamics import (
    HEURISTIC_NONMEMBER,
    MEMBER,
    TruncatedVector,
    eigenvector,
    jset_experiment,
    mixing_witness,
    shift_power,
    span_approximate,
    apply_operator,
)
from shiftspec.holo import Polynomial, identity_map
from shiftspec.jclass import (
    JCLASS,
    NOT_JCLASS,
    VERDICT_UNDECIDED,
    cross_check,
    decide_geometric,
    decide_unweighted,
)
from shiftspec.spectra import (
    OperatorSpec,
    compressed_forward_power_matrix,
    truncation_modulus,
)
from shiftspec.weights import (
    WeightSequence,
    kappa_forward_power,
    log_kappa_forward_power,
    spectral_profile,
)


def P(*coeffs):
    return Polynomial(tuple(coeffs))


def const_op(c, f=None):
    return OperatorSpec(WeightSequence.constant(c), f or identity_map())


def one_plus_zm(m):
    coeffs = [0.0] * (m + 1)
    coeffs[0] = 1.0
    coeffs[m] = 1.0
    return P(*coeffs)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_plain_shift_threshold():
    t0 = time.perf_counter()
    got = [decide_geometric(const_op(c)).decision for c in (0.5, 1.0, 1.1, 2.0)]
    elapsed = time.perf_counter() - t0
    want = [NOT_JCLASS, NOT_JCLASS, JCLASS, JCLASS]
    report(
        1,
        got == want and elapsed < 1.0,
        f"plain shift verdicts {got} in {elapsed:.3f}s",
    )


def test_criterion_02_one_plus_zm_threshold():
    t0 = time.perf_counter()
    failures = []
    for m in (1, 2, 3):
        c = 2.0 ** (1.0 / m)
        lo = decide_geometric(const_op(c * 0.95, one_plus_zm(m))).decision
        hi = decide_geometric(const_op(c * 1.05, one_plus_zm(m))).decision
        near = decide_geometric(const_op(c, one_plus_zm(m))).decision
        if (lo, hi, near) != (NOT_JCLASS, JCLASS, VERDICT_UNDECIDED):
            failures.append((m, lo, hi, near))
    elapsed = time.perf_counter() - t0
    report(
        2,
        not failures and elapsed < 5.0,
        f"shifted-power thresholds flip at 2^(1/m), near-exact abstains "
        f"(failures={failures}) in {elapsed:.3f}s",
    )


def test_criterion_03_unweighted_shift_images():
    t0 = time.perf_counter()
    v1 = decide_unweighted(P(0, 2))
    v2 = decide_unweighted(P(3, 1))
    elapsed = time.perf_counter() - t0
    ok = (
        v1.decision == JCLASS
        and v2.decision == NOT_JCLASS
        and v2.condition_a.lower_bound > 1
        and v2.condition_b.winding.winding == 0
        and elapsed < 1.0
    )
    report(
        3,
        ok,
        f"2z -> {v1.decision}; z+3 -> {v2.decision} with bound "
        f"{v2.condition_a.lower_bound:.3f} > 1 and winding 0, in {elapsed:.3f}s",
    )


def test_criterion_04_route_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    passes = 0
    for _ in range(50):
        rep = cross_check(random_instance(rng))
        passes += rep.consistent
    elapsed = time.perf_counter() - t0
    report(
        4,
        passes == 50 and elapsed < 60.0,
        f"route agreement on {passes}/50 randomized instances in {elapsed:.1f}s",
    )


def _structured_weights_for_truncation(rng):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        prefix = tuple(rng.uniform(0.6, 3.0, int(rng.integers(0, 3))))
        return WeightSequence.constant(rng.uniform(0.6, 3.0), prefix)
    if kind == 1:
        prefix = tuple(rng.uniform(0.6, 3.0, int(rng.integers(0, 3))))
        period = int(rng.integers(1, 5))
        return WeightSequence.periodic(rng.uniform(0.6, 3.0, period), prefix)
    # doubling blocks: no prefix so the infimum window fits inside N = 8
    return WeightSequence.doubling_blocks(rng.uniform(0.6, 3.0), rng.uniform(0.6, 3.0))


def test_criterion_05_modulus_oracle_matches_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(20):
        w = _structured_weights_for_truncation(rng)
        n = int(rng.integers(1, 4))
        est = truncation_modulus(compressed_forward_power_matrix(w, 8, n), "one")
        true = kappa_forward_power(w, n)
        worst = max(worst, abs(est.kappa - true) / true)
    elapsed = time.perf_counter() - t0
    report(
        5,
        worst <= 1e-12 and elapsed < 120.0,
        f"exact truncation modulus vs closed form, worst relative error {worst:.1e} "
        f"over 20 instances in {elapsed:.3f}s",
    )


def test_criterion_06_mixing_witness_exact():
    t0 = time.perf_counter()
    wit = mixing_witness(const_op(2.0), TruncatedVector.ones(64), 5)
    elapsed = time.perf_counter() - t0
    norms = [s.norm for s in wit.stages]
    residuals = [s.round_trip_residual for s in wit.stages]
    ok = (
        wit.ok
        and norms == [2.0**-m for m in range(1, 6)]
        and residuals == [0.0] * 5
        and elapsed < 1.0
    )
    report(6, ok, f"witness norms {norms}, residuals {residuals}, in {elapsed:.3f}s")


def test_criterion_07_eigenvector_suite():
    rng = np.random.default_rng(707)
    worst_eig = 0.0
    worst_transport = 0.0
    for _ in range(50):
        w = random_weights(rng)
        prof = spectral_profile(w)
        lam = complex(
            0.9 * prof.r3 * rng.uniform() * np.exp(2j * math.pi * rng.uniform())
        )
        ev = eigenvector(w, lam, 64)
        shifted = shift_power(w, ev, 1)
        worst_eig = max(
            worst_eig,
            float(np.max(np.abs(shifted.coords[:63] - lam * ev.coords[:63]))),
        )
        f = P(*(rng.normal(size=3) + 1j * rng.normal(size=3)))
        out = apply_operator(OperatorSpec(w, f), ev)
        expect = f.eval(lam) * ev.coords[: out.exact_prefix]
        scale = max(1.0, float(np.max(np.abs(expect))))
        worst_transport = max(
            worst_transport,
            float(np.max(np.abs(out.coords[: out.exact_prefix] - expect))) / scale,
        )
    ok = worst_eig <= 1e-12 and worst_transport <= 1e-10
    report(
        7,
        ok,
        f"eigen residual {worst_eig:.2e} <= 1e-12, map transport residual "
        f"{worst_transport:.2e} <= 1e-10 over 50 draws",
    )


def test_criterion_08_density_demo():
    w = WeightSequence.constant(2.0)
    radius = 0.5 * spectral_profile(w).r3
    grid = [radius * np.exp(2j * math.pi * k / 20) for k in range(20)]
    fit = span_approximate(w, TruncatedVector.basis(32, 1), grid, 32)
    report(
        8,
        fit.residual_sup <= 1e-6,
        f"basis vector approximated by 20 eigenvectors, achieved residual "
        f"{fit.residual_sup:.3e} <= 1e-6",
    )


def test_criterion_09_submultiplicativity():
    rng = np.random.default_rng(909)
    violations = 0
    for _ in range(100):
        w = random_weights(rng)
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        lhs = log_kappa_forward_power(w, m + n)
        rhs = log_kappa_forward_power(w, m) + log_kappa_forward_power(w, n)
        violations += lhs < rhs - 1e-9
    report(9, violations == 0, f"window-product inequality: {violations} violations in 100 draws")


def _jclass_pool_for_stability(rng):
    pool = []
    while len(pool) < 20:
        w = random_weights(rng, lo=1.1, hi=3.0)
        if spectral_profile(w).r2 <= 1.05:
            continue
        scale = rng.uniform(1.0, 1.3)
        pool.append(OperatorSpec(w, P(0, scale)))
    return pool


def test_criterion_10_perturbation_stability():
    rng = np.random.default_rng(1010)
    flips = 0
    checked = 0
    for op in _jclass_pool_for_stability(rng):
        base = decide_geometric(op)
        assert base.decision == JCLASS and base.margin > 0
        flips += len(perturbation_flips(op, base.margin / 4.0, trials=20, seed=checked))
        checked += 1
    report(
        10,
        checked == 20 and flips == 0,
        f"{checked} certified instances, noise at margin/4, {flips} verdict flips",
    )


def test_criterion_11_limit_set_consistency():
    rng = np.random.default_rng(1111)
    failures = []
    checked = 0
    while checked < 10:
        w = random_weights(rng, lo=1.2, hi=3.0, max_prefix=1)
        prof = spectral_profile(w)
        if prof.r2 <= 1.1:
            continue
        if prof.r1 > prof.r2 + 1e-9:
            continue  # growth-rate match needs r1 = r2 (constant or periodic)
        op = OperatorSpec(w, identity_map())

        # membership needs a decaying orbit: the image eigenvalue (here the
        # eigenvalue itself) must lie inside the unit disk
        x = eigenvector(w, min(0.6, 0.5 * prof.r3), 256)
        member = jset_experiment(op, x, [TruncatedVector.ones(256)])
        if not (member.status == MEMBER and member.memberships[0].final_error <= 1e-6):
            failures.append(("membership", w.to_dict(), member.memberships[0].final_error))

        growth = jset_experiment(op, TruncatedVector.ones(256), [])
        rate, bound = growth.growth.measured_rate, growth.growth.certified_rate
        if growth.status != HEURISTIC_NONMEMBER or abs(rate - bound) > 0.1 * bound:
            failures.append(("growth", w.to_dict(), rate, bound))
        checked += 1
    report(
        11,
        not failures,
        f"10 instances: eigenvector starts certified members (error <= 1e-6), "
        f"constant vector flagged heuristic nonmember with tail rate within "
        f"10% of the certified bound (failures={failures})",
    )
