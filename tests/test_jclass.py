import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import shiftspec.holo
import shiftspec.jclass
from conftest import THRESHOLD_MAPS, random_instance, threshold_instance
from shiftspec.budget import Budget
from shiftspec.holo import CERTIFIED, UNDECIDED, Polynomial, Series, identity_map, winding_number
from shiftspec.jclass import (
    JCLASS,
    NOT_JCLASS,
    VERDICT_UNDECIDED,
    cross_check,
    decide,
    decide_geometric,
    decide_moduli,
    decide_unweighted,
    Verdict,
    perturbation_stability,
)
from shiftspec.cli import load_instance
from shiftspec.spectra import KERNEL_TRUE, OperatorSpec, UnsupportedMapError, i_of_adjoint
from shiftspec.weights import (
    ConstantTail,
    PeriodicTail,
    TwoValueDoublingBlocks,
    WeightSequence,
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


# -- geometric route ------------------------------------------------------


def test_plain_shift_threshold():
    assert decide_geometric(const_op(2.0)).decision == JCLASS
    v = decide_geometric(const_op(1.0))
    assert v.decision == NOT_JCLASS
    assert v.condition_a.min_sampled <= 1.0  # witness on the annulus circle


def test_one_plus_z2_threshold():
    # flips exactly as the constant weight crosses sqrt(2)
    assert decide_geometric(const_op(1.5, one_plus_zm(2))).decision == JCLASS
    assert decide_geometric(const_op(1.4, one_plus_zm(2))).decision == NOT_JCLASS


def test_jclass_carries_both_certificates():
    v = decide_geometric(const_op(1.5, one_plus_zm(2)))
    assert v.condition_a.status == CERTIFIED and v.condition_a.lower_bound > 1
    assert v.condition_b.winding.valid and v.condition_b.winding.winding >= 1
    assert v.margin > 0


def test_not_jclass_by_coverage():
    v = decide_geometric(const_op(2.0, P(3, 1)))
    assert v.decision == NOT_JCLASS
    assert v.condition_b is not None and v.condition_b.covers is False


def test_series_map_geometric_route():
    # near-monomial series still runs through the numeric grid + winding path
    s = Series((0, 0, 3.0), tail_bound=1e-12, tail_ratio=0.1, validity_radius=8.0)
    v = decide_geometric(const_op(1.2, s))
    assert v.decision == JCLASS
    assert v.condition_b.winding.winding == 2

    # roots of 3 + z^2 sit outside the inner disk: coverage fails
    s2 = Series((3.0, 0, 1.0), tail_bound=1e-12, tail_ratio=0.1, validity_radius=8.0)
    v2 = decide_geometric(const_op(1.2, s2))
    assert v2.decision == NOT_JCLASS
    assert v2.condition_b.covers is False


# -- condition A on the two boundary circles -------------------------------------

BLOCKS_2_1 = WeightSequence.doubling_blocks(2.0, 1.0)  # annulus 1 <= |z| <= 2


@pytest.mark.parametrize("f", [
    P(-4.5, 3),
    Series((-4.5, 3), tail_bound=1e-12, tail_ratio=0.1, validity_radius=5.0),
], ids=["poly", "series"])
def test_zero_between_clear_circles_is_a_violation(f):
    # |3z - 4.5| >= 1.5 on both circles, but its zero 1.5 lies between them:
    # the windings 0 and 1 differ, and halving toward the zero finds |f| <= 1
    v = decide_geometric(OperatorSpec(BLOCKS_2_1, f))
    a = v.condition_a
    assert v.decision == NOT_JCLASS
    assert a.status == CERTIFIED and a.lower_bound == 0.0
    assert 1.0 <= abs(a.witness_point) <= 2.0
    assert abs(f.eval(a.witness_point)) <= 1.0


def test_zero_between_circles_budget_runs_out():
    # same zero between the circles, plus a root at 0 so that coverage
    # cannot refute; on a series map (no root placement) the budget stops
    # before the halving finds a witness
    f = Series((0, -4.5, 3), tail_bound=0.0, tail_ratio=0.1, validity_radius=5.0)
    cert = i_of_adjoint(OperatorSpec(BLOCKS_2_1, f), Budget(grid_max=64))
    assert cert.status == UNDECIDED and cert.lower_bound == 0.0
    assert cert.min_sampled > 1.0
    v = decide_geometric(OperatorSpec(BLOCKS_2_1, f), Budget(grid_max=64))
    assert v.decision == VERDICT_UNDECIDED
    assert v.condition_a.lower_bound == 0.0
    # the polynomial's root disk about 1.5 lies inside the open annulus:
    # that zero is the witness, with no halving and within the same budget
    v = decide_geometric(OperatorSpec(BLOCKS_2_1, P(*f.coeffs)), Budget(grid_max=64))
    a = v.condition_a
    assert v.decision == NOT_JCLASS and a.status == CERTIFIED
    assert a.lower_bound == a.min_sampled == 0.0 and a.witness_point == pytest.approx(1.5)
    assert 0.0 < a.root_radius < 1e-9
    assert v.notes == ("annulus image meets the closed unit disk: zero of f within "
                       f"{a.root_radius!r} of witnessPoint")


def test_annulus_violation_right_below_threshold():
    # min |1 + z| over r <= |z| <= 1.5 r is r - 1 = 1 - 1e-9, reached on the
    # inner circle only: a 1-D scan of that circle finds the witness
    r = 2.0 - 1e-9
    v = decide_geometric(OperatorSpec(WeightSequence.doubling_blocks(1.5 * r, r), P(1, 1)))
    assert v.decision == NOT_JCLASS
    assert v.condition_a.min_sampled <= 1.0
    assert abs(abs(v.condition_a.witness_point) - r) <= 1e-12 * r


def test_series_validity_radius_enforced():
    s = Series((3.0, 1.0), 0.1, 0.4, 1.5)
    with pytest.raises(ValueError):
        decide_geometric(const_op(2.0, s))


# -- unweighted shift images -------------------------------------------------


def test_unweighted_examples():
    assert decide_unweighted(P(0, 2)).decision == JCLASS
    v = decide_unweighted(P(3, 1))
    assert v.decision == NOT_JCLASS
    assert v.condition_a.lower_bound > 1
    assert v.condition_b.winding.winding == 0
    # |2 z^2| = 2 on the boundary circle and the double cover winds twice
    assert decide_unweighted(P(0, 0, 2)).decision == JCLASS


def test_unweighted_refuses_a_series_within_the_unit_disk():
    # all radii are 1, so the validity check is the spectral one at r1 = 1
    with pytest.raises(ValueError, match="validity radius 1.0 does not exceed .* radius 1.0"):
        decide_unweighted(Series((0, 2), 0.1, 1.0, 1.0))
    assert decide_unweighted(Series((0, 2), 1e-3, 0.5, 2.0)).decision == JCLASS


# -- moduli route -----------------------------------------------------------


def test_moduli_examples():
    assert decide_moduli(const_op(2.0)).decision == JCLASS
    assert decide_moduli(const_op(1.0)).decision == NOT_JCLASS
    v = decide_moduli(const_op(2.0, P(3, 1)))
    assert v.decision == NOT_JCLASS  # refuted by the root-free spectral disk
    assert v.kernel.status == "FALSE"


def test_moduli_rejects_series():
    s = Series((0, 1), 0.1, 0.3, 3.0)
    with pytest.raises(UnsupportedMapError):
        decide_moduli(OperatorSpec(WeightSequence.constant(2.0), s))


def test_moduli_root_in_annulus_is_violation():
    # a root between r3 and r1 lies inside the annulus, so the modulus bound
    # itself certifies the violation before the kernel question matters
    w = WeightSequence.doubling_blocks(2.9, 2.5)  # r2 = 2.5, r3 ~ 2.63, r1 = 2.9
    v = decide_moduli(OperatorSpec(w, P(-2.8, 1)))
    assert v.decision == NOT_JCLASS
    assert v.condition_a.certifies_violation


def test_moduli_undecided_near_threshold():
    # at the exact flip point the modulus bound abstains while the kernel
    # witness alone cannot decide
    c = math.sqrt(2)
    v = decide_moduli(const_op(c, one_plus_zm(2)))
    assert v.decision == VERDICT_UNDECIDED
    assert v.kernel.status == "TRUE"  # roots +-i lie safely inside


# -- near-threshold abstention ----------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_near_exact_threshold_undecided(m):
    c = 2.0 ** (1.0 / m)
    assert decide_geometric(const_op(c, one_plus_zm(m))).decision == VERDICT_UNDECIDED


def record_scans(monkeypatch) -> list:
    """Record every circle scan, to read its evaluation count.  A scan's
    ``circles`` holds, per circle, the evaluations the scan had made before
    it and the points of each of the circle's array passes."""
    scans, horner = [], shiftspec.holo._horner

    class Recording(shiftspec.holo._CircleScan):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.circles = []
            scans.append(self)

        def floor(self, r):
            self.circles.append((self.evals, []))
            return super().floor(r)

    def recording_horner(coeffs, z, derivative=False):
        # the scan's array passes take f'; windings take none, root polishing is scalar
        if derivative and np.ndim(z):
            scans[-1].circles[-1][1].append(len(z))
        return horner(coeffs, z, derivative)

    monkeypatch.setattr(shiftspec.holo, "_CircleScan", Recording)
    monkeypatch.setattr(shiftspec.holo, "_horner", recording_horner)
    return scans


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("geometry", ["circle", "annulus"])
@pytest.mark.parametrize("name", THRESHOLD_MAPS)
def test_threshold_decided_within_scan_budget(monkeypatch, name, geometry, side):
    # min |f| = 1 +- 1e-9 on the annulus: the second-order arc floor keeps
    # only a few arcs near the minimum, and each pass splits them as many
    # levels deep as fit in 128 points, so a circle takes at most 4 passes
    scans = record_scans(monkeypatch)
    min_modulus = 1.0 + side * 1e-9
    op = threshold_instance(name, geometry, min_modulus)
    v = decide_geometric(op)
    assert v.decision == (JCLASS if side > 0 else NOT_JCLASS)
    assert sum(scan.evals for scan in scans) <= 1024
    circles = [passes for scan in scans for _, passes in scan.circles]
    assert max(len(passes) for passes in circles) <= 4
    assert max(max(passes) for passes in circles) <= 128
    assert v.condition_a.lower_bound <= min_modulus + op.map.eval_round_error(op.profile().r1)


@pytest.mark.parametrize("geometry", ["circle", "annulus"])
@pytest.mark.parametrize("name", THRESHOLD_MAPS)
def test_near_threshold_witness_after_one_pass(monkeypatch, name, geometry):
    # min |f| = 1 - 1e-9: the first pass leaves arcs floored at or below 1
    # but no sample there, and Newton from its smallest sample finds the
    # witness, so each scanned circle makes one 128-point pass; mpmath at 50
    # digits proves |f| <= 1 at the witness, allowing for its distance from
    # the annulus (a Lipschitz bound times it)
    mpmath = pytest.importorskip("mpmath")
    scans = record_scans(monkeypatch)
    op = threshold_instance(name, geometry, 1.0 - 1e-9)
    v = decide_geometric(op)
    assert v.decision == NOT_JCLASS
    assert [passes for scan in scans for _, passes in scan.circles] == [[128]]
    prof, w = op.profile(), v.condition_a.witness_point
    with mpmath.workdps(50):
        a = [mpmath.mpc(c.real, c.imag) for c in op.map.coeffs]
        z = mpmath.mpc(w.real, w.imag)
        off = max(0, prof.r2 - abs(z), abs(z) - prof.r1)
        lip = sum(n * abs(a[n]) * (prof.r1 + off) ** (n - 1) for n in range(1, len(a)))
        assert abs(mpmath.polyval(a[::-1], z)) + lip * off <= 1


@pytest.mark.parametrize("geometry", ["circle", "annulus"])
@pytest.mark.parametrize("name", THRESHOLD_MAPS)
def test_probe_without_witness_changes_no_sample(monkeypatch, name, geometry):
    # min |f| = 1 + 1e-9: the first pass leaves arcs floored at or below 1,
    # so the probe runs, finds no witness and drops its samples; the bound
    # comes out as it does with the probe switched off
    op = threshold_instance(name, geometry, 1.0 + 1e-9)
    probed = i_of_adjoint(op)
    polish, probes = shiftspec.holo._CircleScan._polish, []

    def unprobed(self, r, start, witness_only=False):
        if witness_only:
            probes.append(r)
        else:
            polish(self, r, start)

    monkeypatch.setattr(shiftspec.holo._CircleScan, "_polish", unprobed)
    assert i_of_adjoint(op).to_dict() == probed.to_dict()
    assert probes


@pytest.mark.parametrize("name", THRESHOLD_MAPS)
def test_annulus_with_every_root_inside_scans_its_inner_circle_only(monkeypatch, name):
    # every root lies inside r2, so f / z^d has no zero on |z| >= r2, infinity
    # included, and the maximum modulus theorem for z^d / f carries the inner
    # circle's certified floor to the whole annulus
    scans = record_scans(monkeypatch)
    for clearance in (1e-2, 1e-9):
        op = threshold_instance(name, "annulus", 1.0 + clearance)
        prof = op.profile()
        ann = shiftspec.holo.Annulus(prof.r2, prof.r1)
        assert op.map.placement.count_within(ann) == op.map.degree
        scans.clear()
        cert = i_of_adjoint(op)
        assert cert.certifies_above
        assert [len(scan.circles) for scan in scans] == [1]
        assert cert.lower_bound == shiftspec.holo._CircleScan(op.map, ann, Budget().grid_max).floor(prof.r2)


@pytest.mark.parametrize("name", THRESHOLD_MAPS)
def test_open_inner_floor_still_scans_the_outer_circle(monkeypatch, name):
    # at gridMax 64 the inner floor stays at or below 1, so the placement is
    # not read early and the outer circle is scanned as before
    scans = record_scans(monkeypatch)
    cert = i_of_adjoint(threshold_instance(name, "annulus", 1.0 + 1e-9), Budget(grid_max=64))
    assert cert.status == UNDECIDED
    assert [len(scan.circles) for scan in scans] == [2]


@pytest.mark.parametrize("grid_max", [160, 200, 300, 512, 1000])
def test_refinement_passes_stay_within_grid_max(monkeypatch, grid_max):
    # only a circle's 128-point first pass (and its Newton steps) may take
    # the scan past grid_max; every later pass fits in what is left
    scans = record_scans(monkeypatch)
    for name in THRESHOLD_MAPS:
        for geometry in ("circle", "annulus"):
            for side in (1, -1):
                decide_geometric(threshold_instance(name, geometry, 1.0 + side * 1e-9),
                                 Budget(grid_max=grid_max))
    refinements = 0
    for scan in scans:
        for start, (first, *later) in scan.circles:
            evals = start + first
            for size in later:
                evals += size
                assert evals <= grid_max
                refinements += 1
    assert refinements > 0


@pytest.mark.parametrize("geometry", ["circle", "annulus"])
@pytest.mark.parametrize("name", THRESHOLD_MAPS)
def test_larger_grid_max_keeps_threshold_answers(name, geometry):
    # a pass cut short by grid_max is its circle's last, so a larger budget
    # makes the same passes, cuts no pass coarser, and then goes on
    for clearance in (1e-7, 1e-8, 1e-9):
        op = threshold_instance(name, geometry, 1.0 + clearance)
        answers = []
        for grid_max in range(64, 1100, 16):
            cert = i_of_adjoint(op, Budget(grid_max=grid_max))
            if cert.status == CERTIFIED:
                answers.append(cert.certifies_above)
            else:
                assert not answers, f"gridMax {grid_max} lost a certified answer"
        assert answers and all(answers)


@pytest.mark.parametrize("m, c", [(1, 2.0), (2, 2.0 ** 0.5), (3, 2.0 ** (1 / 3)), (2, math.sqrt(2))])
def test_exact_threshold_abstains_within_scan_budget(monkeypatch, m, c):
    # min |f| = 1 exactly: the refinement stops at rounding resolution
    scans = record_scans(monkeypatch)
    v = decide_geometric(const_op(c, one_plus_zm(m)))
    assert v.decision == VERDICT_UNDECIDED
    assert v.condition_a.lower_bound <= 1.0 < v.condition_a.min_sampled + 1e-12
    assert sum(scan.evals for scan in scans) <= 1024
    # at gridMax 64 no refinement pass fits: a circle spends its first pass,
    # the probe's 3 Newton steps and the end polish's 3, and the annulus adds
    # its outer circle, whose first pass floors every arc above 1 (no probe)
    for w, evals in ((WeightSequence.constant(c), 134), (WeightSequence.doubling_blocks(1.5 * c, c), 265)):
        scans.clear()
        v = decide_geometric(OperatorSpec(w, one_plus_zm(m)), Budget(grid_max=64))
        assert v.decision == VERDICT_UNDECIDED
        assert sum(scan.evals for scan in scans) == evals


# -- cross checking ----------------------------------------------------------


def test_cross_check_agreement_examples():
    rep = cross_check(const_op(2.0, one_plus_zm(2)))
    assert rep.consistent
    assert rep.geometric.decision == JCLASS and rep.moduli.decision == JCLASS

    rep = cross_check(const_op(1.2, P(1, 1)))
    assert rep.consistent
    assert rep.geometric.decision == NOT_JCLASS and rep.moduli.decision == NOT_JCLASS


def test_cross_check_randomized(rng):
    for _ in range(15):
        op = random_instance(rng)
        rep = cross_check(op)
        assert rep.consistent, rep.detail
        # the shared condition-A certificate changes neither route's verdict
        assert rep.geometric.to_dict() == decide_geometric(op).to_dict()
        assert rep.moduli.to_dict() == decide_moduli(op).to_dict()


def zero_in_spectrum_evidence(op, verdict) -> bool:
    """Whether a JCLASS verdict shows 0 in the spectrum of f(B_w): a valid
    winding >= 1 of f about 0 on |z| = r2 puts a root of f inside the disk
    of radius r2, which lies in the spectrum of B_w, so 0 = f(root) is in
    the spectrum of f(B_w); a kernel root z of f with |z| < r3 is an
    eigenvalue of B_w, so f(B_w) has a kernel."""
    cover, ker, prof = verdict.condition_b, verdict.kernel, verdict.profile
    if cover is not None and cover.winding.valid and cover.winding.winding >= 1:
        return any(abs(z) < prof.r2 for z in op.map.roots())
    if ker is not None and ker.status == KERNEL_TRUE and ker.root is not None:
        f, z = op.map, ker.root
        target = 1e-10 * (1.0 + max(abs(c) for c in f.coeffs))
        return abs(z) < prof.r3 and abs(f.eval(z)) <= target + f.eval_round_error(abs(z))
    return False


def test_no_invertible_jclass_operator(rng):
    # the paper: no invertible operator on l^inf is J-class, so every JCLASS
    # verdict of either route must come with evidence that f(B_w) is not
    # invertible
    instances = sorted((Path(__file__).resolve().parents[1] / "instances").glob("*.json"))
    ops = [random_instance(rng) for _ in range(150)] + [load_instance(str(path))[0]
                                                        for path in instances]
    jclass = 0
    for op in ops:
        rep = cross_check(op)
        for verdict in (rep.geometric, rep.moduli):
            if verdict.decision == JCLASS:
                jclass += 1
                assert zero_in_spectrum_evidence(op, verdict), verdict.to_dict()
    assert jclass >= 100


def count_condition_a(monkeypatch) -> list:
    """Record every call of the condition-A certificate made by jclass."""
    calls = []

    def counting(op, budget=None):
        calls.append(op)
        return i_of_adjoint(op, budget)

    monkeypatch.setattr(shiftspec.jclass, "i_of_adjoint", counting)
    return calls


def test_cross_check_certifies_condition_a_once(monkeypatch):
    calls = count_condition_a(monkeypatch)
    rep = cross_check(const_op(2.0, one_plus_zm(2)))
    assert rep.consistent and rep.geometric.decision == JCLASS
    assert len(calls) == 1


def test_cross_check_rejects_series_after_geometric_route(monkeypatch):
    op = OperatorSpec(WeightSequence.constant(2.0), Series((0, 1), 0.1, 0.3, 3.0))
    calls = count_condition_a(monkeypatch)
    with pytest.raises(UnsupportedMapError):
        cross_check(op)
    assert len(calls) == 1


@pytest.mark.parametrize("min_modulus, decision", [(1.0 + 1e-6, JCLASS), (1.0, VERDICT_UNDECIDED)])
def test_condition_b_reuses_inner_winding(monkeypatch, min_modulus, decision):
    # condition A on a true annulus takes the winding about 0 on |z| = r2;
    # condition B (coverage, or its refutation while A is open) reads it
    # instead of sampling the same circle again.  A series map samples both
    # windings; a polynomial with a complete root placement samples none
    op = threshold_instance("1+z^2", "annulus", min_modulus)
    series = OperatorSpec(op.weights, Series(op.map.coeffs, tail_bound=0.0, tail_ratio=0.1,
                                             validity_radius=5.0))
    prof = spectral_profile(op.weights)
    radii = []

    def counting(f, radius, target, budget=None):
        radii.append(radius)
        return winding_number(f, radius, target, budget)

    monkeypatch.setattr(shiftspec.holo, "winding_number", counting)
    # also counted if jclass ever calls it directly again
    monkeypatch.setattr(shiftspec.jclass, "winding_number", counting, raising=False)
    v = decide_geometric(series)
    assert v.decision == decision
    assert radii == [prof.r2, prof.r1]
    if decision == JCLASS:
        assert v.condition_b.winding == winding_number(series.map, prof.r2, 0j)
    radii.clear()
    v = decide_geometric(op)
    assert v.decision == decision and radii == []
    if decision == JCLASS:
        # both roots +-i lie inside r2 = sqrt(2 + 1e-6): winding 2, no samples,
        # at condition A's certified floor on the inner circle
        wind = v.condition_b.winding
        assert (wind.winding, wind.valid, wind.samples) == (2, True, 0)
        assert wind.min_distance >= v.condition_a.lower_bound > 1.0


def test_route_dispatcher():
    v, rep = decide(const_op(2.0), route="both")
    assert v.decision == JCLASS and rep.consistent
    with pytest.raises(ValueError):
        decide(const_op(2.0), route="psychic")


# -- invariants ---------------------------------------------------------------


def test_monotone_in_weight_scaling(rng):
    # scaling all weights up never turns a JCLASS identity-map verdict around
    for _ in range(10):
        c = rng.uniform(1.05, 2.5)
        base = decide_geometric(const_op(c))
        assert base.decision == JCLASS
        for t in (1.0, 1.5, 3.0):
            assert decide_geometric(const_op(c * t)).decision == JCLASS


def test_jclass_certificates_always_present(rng):
    # every JCLASS verdict exhibits both certified facts: the annulus image
    # avoids the closed unit disk and the inner-disk image covers it
    for _ in range(20):
        op = random_instance(rng)
        v = decide_geometric(op)
        if v.decision == JCLASS:
            assert v.condition_a.certifies_above
            b = v.condition_b
            assert b.status == CERTIFIED and b.covers and b.winding.winding >= 1


# -- perturbation stability ----------------------------------------------------


class _CountingRng:
    """Draw k returns k, so a weight v perturbs to v * (1 + k)."""

    def __init__(self):
        self.k = 0

    def uniform(self, lo, hi):
        self.k += 1
        return float(self.k)


@pytest.mark.parametrize(
    "tail, expected",
    [
        (ConstantTail(1.0), ConstantTail(4.0)),
        (PeriodicTail((1.0, 10.0)), PeriodicTail((4.0, 50.0))),
        (TwoValueDoublingBlocks(1.0, 10.0), TwoValueDoublingBlocks(4.0, 50.0)),
    ],
)
def test_perturbed_weights_draw_order(tail, expected):
    # the prefix draws first, then the tail's numbers in to_dict order
    w = WeightSequence((1.0, 1.0), tail)
    wp = shiftspec.jclass._perturbed_weights(w, 0.1, _CountingRng())
    assert wp.prefix == (2.0, 3.0) and wp.tail == expected


def test_stability_within_margin():
    rep = perturbation_stability(const_op(2.0), rel_delta=0.05, trials=20, seed=1)
    assert rep.stable
    assert rep.base.decision == JCLASS


def test_stability_small_margin_instance():
    # 1.45 * 0.99 = 1.4355 still clears sqrt(2)
    rep = perturbation_stability(const_op(1.45, one_plus_zm(2)), 0.01, trials=20, seed=2)
    assert rep.stable


def test_stability_reports_flips_outside_radius():
    rep = perturbation_stability(const_op(2.0), rel_delta=0.6, trials=40, seed=3)
    assert not rep.stable
    assert len(rep.flips) > 0
    trial, decision, weights = rep.flips[0]
    assert decision != JCLASS and "tail" in weights


# -- products -------------------------------------------------------------------


@dataclass(frozen=True)
class ProductReport:
    factor_verdicts: tuple[Verdict, Verdict]
    product_verdict: Verdict
    bound_product: float
    bound_of_product: float
    bound_check: bool
    jclass_preserved: bool


def product_preserves_jclass(
    op1: OperatorSpec,
    op2: OperatorSpec,
    budget: Budget | None = None,
) -> ProductReport:
    """Check that the product of two commuting J-class images stays J-class.

    The factors share the weight sequence, so their images commute and the
    product operator is the image under the coefficient-convolution product
    of the maps.  The certified annulus bound is supermultiplicative:
    min |fg| >= (min |f|)(min |g|), checked here within certification
    widths.
    """
    if op1.weights != op2.weights:
        raise ValueError("product check needs a shared weight sequence")
    if not (isinstance(op1.map, Polynomial) and isinstance(op2.map, Polynomial)):
        raise UnsupportedMapError("product check needs polynomial maps")
    v1 = decide_geometric(op1, budget)
    v2 = decide_geometric(op2, budget)
    if not (v1.decision == JCLASS and v2.decision == JCLASS):
        raise ValueError("both factors must be certified JCLASS")
    prod_op = OperatorSpec(op1.weights, Polynomial(tuple(np.convolve(op1.map.coeffs, op2.map.coeffs))))
    vp = decide_geometric(prod_op, budget)
    lb1, lb2 = v1.condition_a.lower_bound, v2.condition_a.lower_bound
    lbp = vp.condition_a.lower_bound
    width = vp.condition_a.width
    ok = lbp >= lb1 * lb2 - width - 1e-9
    return ProductReport(
        factor_verdicts=(v1, v2),
        product_verdict=vp,
        bound_product=lb1 * lb2,
        bound_of_product=lbp,
        bound_check=ok,
        jclass_preserved=vp.decision == JCLASS,
    )


def test_product_examples():
    w1 = WeightSequence.constant(1.0)
    rep = product_preserves_jclass(
        OperatorSpec(w1, P(0, 2)), OperatorSpec(w1, P(0, 2))
    )
    assert rep.jclass_preserved and rep.bound_check
    assert rep.bound_of_product == pytest.approx(4.0)
    assert rep.product_verdict.profile.r1 == 1.0

    w15 = WeightSequence.constant(1.5)
    rep = product_preserves_jclass(
        OperatorSpec(w15, P(0, 2)), OperatorSpec(w15, one_plus_zm(2))
    )
    assert rep.jclass_preserved and rep.bound_check

    rep = product_preserves_jclass(
        OperatorSpec(w1, P(0, 3)), OperatorSpec(w1, P(0, 3))
    )
    assert rep.jclass_preserved
    assert rep.bound_of_product == pytest.approx(9.0)


def test_product_requires_shared_weights_and_jclass():
    w1, w2 = WeightSequence.constant(1.5), WeightSequence.constant(2.0)
    with pytest.raises(ValueError):
        product_preserves_jclass(
            OperatorSpec(w1, P(0, 2)), OperatorSpec(w2, P(0, 2))
        )
    with pytest.raises(ValueError):
        product_preserves_jclass(
            OperatorSpec(w1, P(0, 0.1)), OperatorSpec(w1, P(0, 2))
        )


def test_verdict_serialization(rng):
    v = decide_geometric(const_op(1.5, one_plus_zm(2)))
    d = v.to_dict()
    assert d["decision"] == JCLASS
    assert d["conditionA"]["lowerBound"] > 1
    assert d["conditionB"]["winding"]["winding"] == 2


def test_constant_maps_never_jclass():
    # a constant operator has no eigenvalue 0 (unless it is the zero map),
    # and its inner-disk image is a single point, so coverage always fails
    for a0 in (0.0, 0.5, 3.0, -2 + 2j):
        v = decide_geometric(const_op(2.0, P(a0)))
        assert v.decision == NOT_JCLASS
        m = decide_moduli(const_op(2.0, P(a0)))
        assert m.decision == NOT_JCLASS


def test_winding_budget_exhaustion_propagates_undecided():
    # high-degree series map: the annulus bound certifies easily (|f| in
    # [1.05, 1.95] on the circle) but the image curve winds so fast that
    # 256 contour samples cannot validate the argument increments
    coeffs = [1.5] + [0.0] * 111 + [0.45]
    op = const_op(1.0, Series(coeffs, tail_bound=0.0, tail_ratio=0.5, validity_radius=2.0))
    v = decide_geometric(op, Budget(winding_max=256))
    assert v.decision == VERDICT_UNDECIDED
    assert v.condition_a.certifies_above
    assert not v.condition_b.winding.valid
    # with the default contour budget the same instance resolves
    assert decide_geometric(op).decision == NOT_JCLASS
    # the polynomial's 112 root disks all lie past r1 = 1 (|z| = 1.0108):
    # winding 0 read from the placement, with no sample, at the small budget
    v = decide_geometric(const_op(1.0, P(*coeffs)), Budget(winding_max=256))
    assert v.decision == NOT_JCLASS
    assert (v.condition_b.winding.winding, v.condition_b.winding.samples) == (0, 0)
