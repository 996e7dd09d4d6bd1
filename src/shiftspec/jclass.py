"""J-class decisions for holomorphic images of weighted backward shifts.

An operator built from a weight sequence w (radii r1 >= r3 >= r2) and a map
f is J-class exactly when the image of the annulus {r2 <= |z| <= r1} under
f stays outside the closed unit disk (condition A) and the image of the
open disk of radius r2 covers the closed unit disk (condition B).  Two
independent decision routes are implemented:

  * the geometric route certifies A with a lower bound for min |f| on the
    annulus, taken on its two boundary circles, and B with a single winding
    number around 0 (sound because under A the image curve misses the
    closed unit disk, so the preimage count is constant across it);
  * the moduli route checks that the certified annulus minimum (the
    asymptotic injectivity modulus of the adjoint side) exceeds 1 and that
    the map has a root inside the eigenvalue disk of radius r3, which
    exhibits an eigenvector for the eigenvalue 0.

Both routes start from the same condition-A certificate, so
``cross_check`` certifies it once per operator and hands it to both.
Certified verdicts from the two routes can never contradict each other;
near thresholds both abstain (UNDECIDED) rather than encode sampling noise.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .budget import Budget, Report
from .holo import (
    CERTIFIED,
    UNDECIDED,
    CertifiedBound,
    CoverageResult,
    HoloMap,
    Polynomial,
    _origin_winding,
    covers_closed_unit_disk,
)
from .spectra import (
    KERNEL_FALSE,
    KERNEL_TRUE,
    KernelReport,
    OperatorSpec,
    UnsupportedMapError,
    i_of_adjoint,
    kernel_nontrivial,
)
from .weights import SpectralProfile, WeightSequence

__all__ = [
    "JCLASS",
    "NOT_JCLASS",
    "VERDICT_UNDECIDED",
    "Verdict",
    "ConsistencyReport",
    "StabilityReport",
    "decide_geometric",
    "decide_moduli",
    "decide_unweighted",
    "decide",
    "cross_check",
    "perturbation_stability",
]

JCLASS = "JCLASS"
NOT_JCLASS = "NOT_JCLASS"
VERDICT_UNDECIDED = "UNDECIDED"

GEOMETRIC = "GEOMETRIC"
MODULI = "MODULI"
CLOSED_FORM = "CLOSED_FORM"


@dataclass(frozen=True)
class Verdict(Report):
    """Decision with its certificates.

    JCLASS carries a certified annulus bound > 1 (condition A) and a valid
    winding >= 1 or kernel witness (condition B); NOT_JCLASS carries either
    an annulus point with |f| <= 1, a certified winding 0, or a certified
    root-free spectral disk.  ``margin`` is the certified clearance of the
    binding condition from its threshold (0 for UNDECIDED).
    """

    decision: str
    route: str
    margin: float
    profile: SpectralProfile
    condition_a: CertifiedBound | None = None
    condition_b: CoverageResult | None = None
    kernel: KernelReport | None = None
    notes: str = ""


def _verdicts(route: str, prof: SpectralProfile, cert_a: CertifiedBound):
    """Verdict builder for one route: the decision, then what differs from margin 0."""
    return partial(Verdict, route=route, margin=0.0, profile=prof, condition_a=cert_a)


def _require_polynomial(op: OperatorSpec) -> None:
    if not isinstance(op.map, Polynomial):
        raise UnsupportedMapError("the moduli route needs a polynomial map")


def decide_geometric(op: OperatorSpec, budget: Budget | None = None) -> Verdict:
    """Decide via the annulus-avoidance and disk-coverage certificates."""
    budget = budget or Budget()
    prof, cert_a = op.check_validity(), i_of_adjoint(op, budget)
    route = CLOSED_FORM if op.map.monomial_form() is not None else GEOMETRIC
    verdict = _verdicts(route, prof, cert_a)
    if cert_a.certifies_violation:
        return verdict(NOT_JCLASS, margin=max(0.0, 1.0 - cert_a.min_sampled),
                       notes="annulus image meets the closed unit disk")

    if cert_a.certifies_above:
        cover = covers_closed_unit_disk(op.map, prof.r2, cert_a, budget)
        if cover.status == UNDECIDED:
            return verdict(VERDICT_UNDECIDED, condition_b=cover,
                           notes="winding sampling budget exhausted")
        if cover.covers:
            # clearance of both certificates: the annulus bound over 1 and
            # the winding curve's certified distance to the closed unit disk
            margin = min(cert_a.lower_bound - 1.0, cover.winding.min_distance - 1.0)
            return verdict(JCLASS, margin=margin, condition_b=cover)
        return verdict(NOT_JCLASS, margin=cert_a.lower_bound - 1.0, condition_b=cover,
                       notes="unit disk not covered (winding 0 about the origin)")

    # Condition A is open, but a valid winding 0 about the origin alone
    # already refutes coverage: the origin then has no preimage in the
    # inner disk, and it lies in the closed unit disk.
    wr = _origin_winding(op.map, prof.r2, cert_a, budget)
    if wr.valid and wr.winding == 0:
        return verdict(NOT_JCLASS, condition_b=CoverageResult(False, CERTIFIED, wr),
                       notes="coverage refuted while the annulus bound stayed open")
    return verdict(VERDICT_UNDECIDED, notes="annulus minimum within certification width of 1")


def _moduli(op: OperatorSpec, prof: SpectralProfile, cert_a: CertifiedBound) -> Verdict:
    verdict = _verdicts(MODULI, prof, cert_a)
    if cert_a.certifies_violation:
        return verdict(NOT_JCLASS, margin=max(0.0, 1.0 - cert_a.min_sampled),
                       notes="adjoint modulus not above 1")

    ker = kernel_nontrivial(op)
    if ker.status == KERNEL_FALSE:
        # a root-free spectral disk refutes the eigenvalue condition on its
        # own, no matter where the modulus bound landed
        margin = cert_a.lower_bound - 1.0 if cert_a.certifies_above else 0.0
        return verdict(NOT_JCLASS, margin=margin, kernel=ker,
                       notes="no eigenvalue 0: every root clears the spectral disk")
    if not cert_a.certifies_above:
        return verdict(VERDICT_UNDECIDED, kernel=ker,
                       notes="adjoint modulus within certification width of 1")
    if ker.status == KERNEL_TRUE:
        return verdict(JCLASS, margin=cert_a.lower_bound - 1.0, kernel=ker)
    return verdict(VERDICT_UNDECIDED, kernel=ker,
                   notes="kernel question open for roots between r3 and r1")


def decide_moduli(op: OperatorSpec, budget: Budget | None = None) -> Verdict:
    """Decide via the adjoint modulus bound and the kernel witness."""
    _require_polynomial(op)
    return _moduli(op, op.check_validity(), i_of_adjoint(op, budget or Budget()))


def decide_unweighted(f: HoloMap, budget: Budget | None = None) -> Verdict:
    """Decision for the plain backward shift (all radii equal to 1)."""
    op = OperatorSpec(WeightSequence.constant(1.0), f)
    return decide_geometric(op, budget)


def decide(op: OperatorSpec, route: str = "geometric", budget: Budget | None = None):
    if route == "geometric":
        return decide_geometric(op, budget), None
    if route == "moduli":
        return decide_moduli(op, budget), None
    if route == "both":
        report = cross_check(op, budget)
        return report.geometric, report
    raise ValueError(f"unknown route {route!r}")


@dataclass(frozen=True)
class ConsistencyReport(Report):
    """Both routes' verdicts and whether ``cross_check`` finds them consistent."""
    geometric: Verdict
    moduli: Verdict
    consistent: bool
    detail: str


def cross_check(op: OperatorSpec, budget: Budget | None = None) -> ConsistencyReport:
    """Run both routes and compare.

    PASS when the decisions agree, or when one is UNDECIDED and the other
    sits near its threshold (margin below twice its certification width);
    a certified contradiction or a confident verdict against an abstention
    is a FAIL.  Condition A is certified once for both routes, and a series
    map raises UnsupportedMapError only after the geometric route has run.
    """
    g = decide_geometric(op, budget)
    _require_polynomial(op)
    m = _moduli(op, g.profile, g.condition_a)
    if g.decision == m.decision:
        return ConsistencyReport(g, m, True, "decisions agree")
    undecided, decided = (g, m) if g.decision == VERDICT_UNDECIDED else (m, g)
    if undecided.decision == VERDICT_UNDECIDED:
        near = decided.margin < 2.0 * max(decided.condition_a.width, 1e-15)
        detail = (
            "one route abstained near the threshold"
            if near
            else "abstention against a confident verdict"
        )
        return ConsistencyReport(g, m, near, detail)
    return ConsistencyReport(g, m, False, "certified contradiction")


def _perturbed_weights(w: WeightSequence, rel_delta: float, rng) -> WeightSequence:
    """Jitter every weight of the weights format: the prefix first, then the
    tail's numbers in ``to_dict`` order."""
    def jitter(v):
        if isinstance(v, list):
            return [jitter(x) for x in v]
        return v * (1.0 + rng.uniform(-rel_delta, rel_delta))

    d = w.to_dict()
    prefix = jitter(d["prefix"])
    tail = {k: v if k == "kind" else jitter(v) for k, v in d["tail"].items()}
    return WeightSequence.from_dict({"prefix": prefix, "tail": tail})


@dataclass(frozen=True)
class StabilityReport(Report):
    """Base verdict and the trials whose jittered weights flipped it."""
    base: Verdict
    rel_delta: float
    trials: int
    flips: tuple
    stable: bool

    def to_dict(self) -> dict:
        d = super().to_dict()
        d["flips"] = [{"trial": t, "decision": v, "weights": wd} for t, v, wd in self.flips]
        return d


def perturbation_stability(
    op: OperatorSpec,
    rel_delta: float,
    trials: int,
    seed: int = 0,
    budget: Budget | None = None,
) -> StabilityReport:
    """Re-decide under independent multiplicative weight noise.

    The J-class set is open, so verdicts with margin m survive noise small
    relative to m; every flip is reported with the offending weights.
    """
    base = decide_geometric(op, budget)
    rng = np.random.default_rng(seed)
    flips = []
    for t in range(trials):
        wp = _perturbed_weights(op.weights, rel_delta, rng)
        v = decide_geometric(OperatorSpec(wp, op.map), budget)
        if v.decision != base.decision:
            flips.append((t, v.decision, wp.to_dict()))
    return StabilityReport(base, rel_delta, trials, tuple(flips), not flips)
