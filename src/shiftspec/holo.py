"""Holomorphic maps and certified geometric predicates.

Maps are polynomials (exact) or power series with a geometrically bounded
coefficient tail (evaluate-only, with a documented truncation error).  The
predicates this module certifies are the two that drive every decision
downstream:

  * a lower bound for min |f| over a centered annulus, via a 1-D
    branch-and-bound over arcs of its two boundary circles, each arc
    certified with a second-order (tangent segment plus curvature) bound;
    the minimum modulus principle carries it to the whole annulus once the
    windings about 0 rule out a zero;
  * the winding number of the curve f(r e^{i\theta}) around a target, via
    argument increments on a doubling sample grid (each doubling evaluates
    only the new angles), declared valid once all increments are below pi/2
    and the curve provably stays away from the target between samples.

Everything is deterministic: no randomness, order-independent reductions.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .budget import Budget

__all__ = [
    "Polynomial",
    "Series",
    "HoloMap",
    "Annulus",
    "CertifiedBound",
    "WindingResult",
    "CoverageResult",
    "CERTIFIED",
    "UNDECIDED",
    "DomainError",
    "RootRefinementError",
    "holo_from_dict",
    "identity_map",
    "min_modulus_on_annulus",
    "winding_number",
    "covers_closed_unit_disk",
]

CERTIFIED = "CERTIFIED"
UNDECIDED = "UNDECIDED"


class DomainError(ValueError):
    """Evaluation requested outside a series map's validity disk."""


class RootRefinementError(RuntimeError):
    """Polynomial root polishing failed to reach the residual target."""


def _as_complex_tuple(coeffs) -> tuple[complex, ...]:
    return tuple(complex(c) for c in coeffs)


def _horner(coeffs: tuple[complex, ...], z):
    out = np.zeros_like(np.asarray(z, dtype=complex))
    for a in reversed(coeffs):
        out = out * z + a
    return out


def _horner_with_derivative(coeffs: tuple[complex, ...], z: np.ndarray):
    """f(z) and f'(z) in one Horner pass; f(z) rounds exactly as ``_horner``."""
    out = np.full(z.shape, coeffs[-1])
    der = np.zeros_like(out)
    for a in coeffs[-2::-1]:
        der = der * z + out
        out = out * z + a
    return out, der


def _horner_scalar(coeffs: tuple[complex, ...], z: complex) -> tuple[complex, complex, complex]:
    """f(z), f'(z) and f''(z) at one point, on plain Python complex numbers."""
    f0 = f1 = f2 = 0j
    for a in reversed(coeffs):
        f2 = f2 * z + f1
        f1 = f1 * z + f0
        f0 = f0 * z + a
    return f0, f1, 2.0 * f2


def _coeff_lipschitz(coeffs: tuple[complex, ...], radius: float) -> float:
    """sum n |a_n| radius^(n-1); an upper bound for |f'| on |z| <= radius."""
    out = 0.0
    for n in range(len(coeffs) - 1, 0, -1):
        out = out * radius + n * abs(coeffs[n])
    return out


def _coeff_curvature(coeffs: tuple[complex, ...], radius: float) -> float:
    """sum n (n-1) |a_n| radius^(n-2); an upper bound for |f''| on |z| <= radius."""
    out = 0.0
    for n in range(len(coeffs) - 1, 1, -1):
        out = out * radius + n * (n - 1) * abs(coeffs[n])
    return out


_EPS = float(np.finfo(float).eps)


def _round_error(coeffs: tuple[complex, ...], radius: float) -> float:
    """Allowance for float rounding in a Horner evaluation on |z| <= radius.

    Certified comparisons against a threshold must not rest on less
    clearance than this, otherwise the verdict would encode noise.
    """
    mag = 0.0
    for n, c in enumerate(coeffs):
        mag += abs(c) * radius**n
    return 4.0 * (len(coeffs) + 2) * _EPS * mag


def _derivative_round_error(coeffs: tuple[complex, ...], radius: float) -> float:
    """``_round_error`` for f' = sum n a_n z^(n-1) on |z| <= radius."""
    return _round_error(tuple(n * c for n, c in enumerate(coeffs))[1:], radius)


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in ascending coefficient order; trailing zeros stripped."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        c = _as_complex_tuple(self.coeffs)
        while len(c) > 1 and c[-1] == 0:
            c = c[:-1]
        if not c:
            c = (0j,)
        object.__setattr__(self, "coeffs", c)

    @property
    def kind(self) -> str:
        return "poly"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def validity_radius(self) -> float:
        return math.inf

    def monomial_form(self) -> tuple[complex, int] | None:
        """(a, d) when f = a z^d (a single nonzero coefficient), else None."""
        nonzero = [i for i, c in enumerate(self.coeffs) if c != 0]
        if len(nonzero) == 1:
            d = nonzero[0]
            return self.coeffs[d], d
        if not nonzero:
            return 0j, 0
        return None

    def eval(self, z, derivative: bool = False):
        """f(z); with ``derivative``, the pair (f(z), f'(z)) for an array z."""
        if derivative:
            return _horner_with_derivative(self.coeffs, z)
        out = _horner(self.coeffs, z)
        if np.ndim(z) == 0:
            return complex(out)
        return out

    def eval_error(self, radius: float) -> float:
        return 0.0

    def eval_round_error(self, radius: float) -> float:
        return _round_error(self.coeffs, radius)

    def derivative_error(self, radius: float) -> float:
        """Allowance for the error of the computed f' on |z| <= radius."""
        return _derivative_round_error(self.coeffs, radius)

    def lipschitz_bound(self, radius: float) -> float:
        return _coeff_lipschitz(self.coeffs, radius)

    def second_derivative_bound(self, radius: float) -> float:
        return _coeff_curvature(self.coeffs, radius)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0j,))
        return Polynomial(tuple((n + 1) * c for n, c in enumerate(self.coeffs[1:])))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(tuple(np.convolve(self.coeffs, other.coeffs)))

    def roots(self) -> list[complex]:
        """All complex roots with multiplicity, Newton-polished.

        Companion-matrix seeds from numpy, each refined until the residual
        clears 1e-10 * (1 + max |coeff|), and accepted within that target
        plus Horner's rounding allowance at the root's own modulus.
        """
        if self.degree < 1:
            raise ValueError("roots are defined for degree >= 1 polynomials")
        seeds = np.roots(np.asarray(self.coeffs[::-1], dtype=complex))
        deriv = self.derivative()
        roots = []
        scale = 1.0 + max(abs(c) for c in self.coeffs)
        target = 1e-10 * scale
        residuals = []
        for z in seeds:
            z = complex(z)
            for _ in range(8):
                fz = self.eval(z)
                if abs(fz) <= 0.25 * target:
                    break
                dz = deriv.eval(z)
                if dz == 0:
                    break
                z = z - fz / dz
            roots.append(z)
            residuals.append(abs(self.eval(z)))
        if any(r > target + self.eval_round_error(abs(z)) for z, r in zip(roots, residuals)):
            raise RootRefinementError(
                f"root refinement residuals {residuals} exceed {target}"
            )
        return roots

    def to_dict(self) -> dict:
        return {"kind": "poly", "coeffs": [[c.real, c.imag] for c in self.coeffs]}


@dataclass(frozen=True)
class Series:
    """Power series with |a_n| <= tail_bound * tail_ratio^n beyond the stored
    coefficients, evaluable on |z| < validity_radius.

    Truncation error at |z| <= rho is tail_bound * (tail_ratio*rho)^(N+1)
    / (1 - tail_ratio*rho) with N the last stored index, which is finite on
    the whole validity disk because tail_ratio * validity_radius <= 1 is
    required at construction.
    """

    coeffs: tuple[complex, ...]
    tail_bound: float
    tail_ratio: float
    validity_radius: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_complex_tuple(self.coeffs))
        object.__setattr__(self, "tail_bound", float(self.tail_bound))
        object.__setattr__(self, "tail_ratio", float(self.tail_ratio))
        object.__setattr__(self, "validity_radius", float(self.validity_radius))
        if not self.coeffs:
            raise ValueError("series needs at least one stored coefficient")
        if not (0.0 < self.tail_ratio < 1.0):
            raise ValueError("tail ratio must lie in (0, 1)")
        if self.tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")
        if not (self.validity_radius > 0):
            raise ValueError("validity radius must be positive")
        if self.tail_ratio * self.validity_radius > 1.0 + 1e-12:
            raise ValueError(
                "validity radius too large for the tail ratio "
                "(need tail_ratio * radius <= 1)"
            )

    @property
    def kind(self) -> str:
        return "series"

    def monomial_form(self):
        return None

    def _check_domain(self, z) -> None:
        if np.max(np.abs(z)) >= self.validity_radius:
            raise DomainError(
                f"|z| >= validity radius {self.validity_radius}"
            )

    def eval(self, z, derivative: bool = False):
        """Stored part of f at z; with ``derivative``, the pair (f(z), f'(z))
        for an array z.  ``eval_error`` and ``derivative_error`` bound the
        neglected tails."""
        self._check_domain(z)
        if derivative:
            return _horner_with_derivative(self.coeffs, z)
        out = _horner(self.coeffs, z)
        if np.ndim(z) == 0:
            return complex(out)
        return out

    def eval_error(self, radius: float) -> float:
        """Upper bound for the truncation error on |z| <= radius."""
        if radius >= self.validity_radius:
            raise DomainError("radius outside validity disk")
        s = self.tail_ratio * radius
        n_stored = len(self.coeffs)
        return self.tail_bound * s**n_stored / (1.0 - s)

    def eval_round_error(self, radius: float) -> float:
        return _round_error(self.coeffs, radius)

    def _derivative_tail(self, radius: float) -> float:
        """B * sum_{n>=m} n q^n r^(n-1), m = number stored: bounds the
        neglected part of f' on |z| <= radius."""
        if radius >= self.validity_radius:
            raise DomainError("radius outside validity disk")
        m = len(self.coeffs)
        s = self.tail_ratio * radius
        return self.tail_bound * self.tail_ratio * s ** (m - 1) * (m * (1 - s) + s) / (1 - s) ** 2

    def derivative_error(self, radius: float) -> float:
        """Allowance for the error of the computed f' on |z| <= radius:
        Horner rounding plus the neglected derivative tail."""
        return _derivative_round_error(self.coeffs, radius) + self._derivative_tail(radius)

    def lipschitz_bound(self, radius: float) -> float:
        return _coeff_lipschitz(self.coeffs, radius) + self._derivative_tail(radius)

    def second_derivative_bound(self, radius: float) -> float:
        if radius >= self.validity_radius:
            raise DomainError("radius outside validity disk")
        # B * sum_{n>=m} n (n-1) q^n r^(n-2) = B q^2 (d/ds)^2 [s^m / (1 - s)]
        m = len(self.coeffs)
        s = self.tail_ratio * radius
        tail = self.tail_bound * self.tail_ratio**2 * (
            m * (m - 1) * s ** max(m - 2, 0) * (1 - s) ** 2
            + 2 * m * s ** (m - 1) * (1 - s)
            + 2 * s**m
        ) / (1 - s) ** 3
        return _coeff_curvature(self.coeffs, radius) + tail

    def to_dict(self) -> dict:
        return {
            "kind": "series",
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
            "tailBound": self.tail_bound,
            "tailRatio": self.tail_ratio,
            "radius": self.validity_radius,
        }


HoloMap = Union[Polynomial, Series]


def holo_from_dict(d: dict) -> HoloMap:
    kind = d.get("kind")
    coeffs = tuple(complex(re, im) for re, im in d["coeffs"])
    if kind == "poly":
        return Polynomial(coeffs)
    if kind == "series":
        return Series(coeffs, d["tailBound"], d["tailRatio"], d["radius"])
    raise ValueError(f"unknown map kind {kind!r}")


def identity_map() -> Polynomial:
    return Polynomial((0j, 1 + 0j))


@dataclass(frozen=True)
class Annulus:
    """{z : inner <= |z| <= outer}, centered at 0."""

    inner: float
    outer: float

    def __post_init__(self):
        object.__setattr__(self, "inner", float(self.inner))
        object.__setattr__(self, "outer", float(self.outer))
        if not (0.0 <= self.inner <= self.outer):
            raise ValueError("need 0 <= inner <= outer")

    def to_dict(self) -> dict:
        return {"inner": self.inner, "outer": self.outer}


@dataclass(frozen=True)
class CertifiedBound:
    """Certified lower bound for min |f| over a region.

    ``lower_bound <= true min`` always holds.  ``status`` is CERTIFIED when
    the bound answers the threshold question it was computed for (either
    lower_bound > threshold, or a sampled point witnesses |f| <= threshold),
    UNDECIDED when it is still open: the budget ran out, or the arcs left
    are as fine as rounding allows (an instance at the threshold).
    ``min_sampled`` is the smallest sampled |f|, taken at ``witness_point``,
    and never lies below ``lower_bound``.  ``grid_step`` is the effective
    step: the reconstruction inequality lower_bound <= min_sampled -
    lipschitz_bound * grid_step * sqrt(2)/2 holds by construction.
    """

    lower_bound: float
    witness_point: complex
    grid_step: float
    lipschitz_bound: float
    status: str
    min_sampled: float
    threshold: float = 1.0

    @property
    def width(self) -> float:
        return self.min_sampled - self.lower_bound

    @property
    def certifies_above(self) -> bool:
        return self.status == CERTIFIED and self.lower_bound > self.threshold

    @property
    def certifies_violation(self) -> bool:
        return self.status == CERTIFIED and self.min_sampled <= self.threshold

    def to_dict(self) -> dict:
        return {
            "lowerBound": self.lower_bound,
            "witnessPoint": [self.witness_point.real, self.witness_point.imag],
            "gridStep": self.grid_step,
            "lipschitzBound": self.lipschitz_bound,
            "status": self.status,
            "minSampled": self.min_sampled,
            "threshold": self.threshold,
        }


# certification width (gap between the smallest sampled value and the
# certified lower bound) that arc refinement aims for; the hard stop is
# the grid_max budget
_WIDTH_TARGET = 1e-3
# Newton steps on |f|^2 along the circle from a circle's smallest sample
_POLISH_STEPS = 3


class _CircleScan:
    """1-D branch-and-bound for min |f| on circles |z| = r in an annulus.

    A circle starts as 128 equal arcs.  Write g(t) = f(r e^{it}); on an arc
    t_c +- h, Taylor's theorem with M = sup |g''| gives

        |g| >= dist(0, g(t_c) + g'(t_c) [-h, h]) - M h^2 / 2,

    with g' = i z f'(z) and M = r sum n|a_n| r^(n-1) + r^2 sum n(n-1)|a_n|
    r^(n-2).  The floor of an arc is the larger of this second-order bound
    and the first-order |g(t_c)| - lip r h, less the evaluation allowance
    for g and h times that for g'.  f and f' come from one Horner pass.
    Arcs floored above max(threshold, smallest sample - _WIDTH_TARGET) are
    retired and the rest halved, until none remain, a sample witnesses
    |f| <= threshold, or all circles together have spent grid_max
    evaluations.  Halving stops once the g' allowance times h plus
    M h^2 / 2 is within the evaluation allowance: no split can then lift a
    floor by more than rounding noise, so the open arcs retire into the
    bound and an instance at the threshold comes back UNDECIDED.  Without a
    witness, a few Newton steps on |g|^2 from the circle's smallest sample
    sharpen the samples; they never move the bound.
    """

    def __init__(self, f: HoloMap, ann: Annulus, threshold: float, grid_max: int):
        self.f, self.threshold, self.grid_max = f, threshold, grid_max
        self.tail_err = f.eval_error(ann.outer) + f.eval_round_error(ann.outer)
        self.evals, self.best_val, self.best_pt = 0, math.inf, complex(ann.outer)

    @property
    def violation(self) -> bool:
        return self.best_val + self.tail_err <= self.threshold

    def floor(self, r: float) -> float:
        """Lower bound for |f| on |z| = r, possibly negative."""
        f = self.f
        lip = f.lipschitz_bound(r)
        curv = r * lip + r * r * f.second_derivative_bound(r)  # sup |g''|
        slope_err = r * f.derivative_error(r)  # allowance for the computed g'
        n, arcs = 128, np.arange(128)  # arc k of n spans [k, k + 1] * 2 pi / n
        retired, here = math.inf, (math.inf, 0.0)
        while True:
            step = 2.0 * math.pi / n
            h = 0.5 * step + 4.0 * _EPS  # the slack covers the rounded centres
            theta = (arcs + 0.5) * step
            z = r * np.exp(1j * theta)
            val, der = f.eval(z, True)
            mod = np.abs(val)
            self.evals += len(mod)
            i = int(np.argmin(mod))
            if mod[i] < here[0]:
                here = (float(mod[i]), float(theta[i]))
                self._sample(here[0], complex(z[i]))
            # distance from 0 to val + i x t, |t| <= h, x = z f'(z), in the
            # frame turning i x onto the real axis; no modulus is squared,
            # so |f| up to the float range is safe
            x = z * der
            speed = np.abs(x)
            v = val * (np.conj(x) / np.maximum(speed, 1e-300))
            dist = np.hypot(np.maximum(np.abs(v.imag) - speed * h, 0.0), v.real)
            spread = slope_err * h + 0.5 * curv * h * h
            floors = np.fmax(mod - (lip * r * h + self.tail_err),
                             dist - (spread + self.tail_err))
            if self.violation:
                return min(retired, float(floors.min()))
            keep = floors <= max(self.threshold, self.best_val - _WIDTH_TARGET)
            if not keep.all():
                retired = min(retired, float(floors[~keep].min()))
            if not keep.any():
                break
            if self.evals >= self.grid_max or spread <= self.tail_err:
                retired = min(retired, float(floors[keep].min()))
                break
            arcs = 2 * arcs[keep]
            arcs, n = np.concatenate([arcs, arcs + 1]), 2 * n
        self._polish(r, here)
        return retired

    def _sample(self, val: float, z: complex) -> None:
        if val < self.best_val:
            self.best_val, self.best_pt = val, z

    def _polish(self, r: float, start: tuple[float, float]) -> None:
        """Newton steps on |g(t)|^2 from (|g(t0)|, t0), kept while they lower
        the samples.  Each step is t -= Re(g'/g) / (|g'/g|^2 + Re(g''/g))."""
        val, t = start
        z = r * cmath.exp(1j * t)
        f0, f1, f2 = _horner_scalar(self.f.coeffs, z)
        for _ in range(_POLISH_STEPS):
            if self.violation or f0 == 0:
                return
            a = 1j * z * f1 / f0
            den = abs(a) ** 2 - (z * (f1 + z * f2) / f0).real
            if not 0.0 < den < math.inf:
                return
            t -= a.real / den
            z = r * cmath.exp(1j * t)
            f0, f1, f2 = _horner_scalar(self.f.coeffs, z)
            self.evals += 1
            if not abs(f0) < val:
                return
            val = abs(f0)
            self._sample(val, z)


def _annulus_floor(f: HoloMap, ann: Annulus, scan: _CircleScan, inner: float,
                   budget: Budget) -> float:
    """Lower bound for min |f| on inner < outer, given the inner circle's.

    If f has no zero in the annulus, which holds exactly when the windings
    about 0 on both circles are valid and equal (argument principle), the
    minimum lies on a boundary circle (minimum modulus principle).  Else the
    bound is 0; if the windings differ, a zero lies between the circles and
    the annulus is halved toward it, the winding at the midpoint picking
    the half, until a circle samples |f| <= threshold or grid_max runs out.
    """
    outer = math.inf if scan.violation else scan.floor(ann.outer)
    if scan.violation:
        return 0.0
    w_lo, w_hi = (winding_number(f, r, 0j, budget) for r in (ann.inner, ann.outer))
    valid = w_lo.valid and w_hi.valid
    if valid and w_lo.winding == w_hi.winding:
        return max(0.0, min(inner, outer))
    lo, hi = ann.inner, ann.outer
    while valid and scan.evals < scan.grid_max:
        mid = 0.5 * (lo + hi)
        scan.floor(mid)
        if scan.violation:
            break
        w_mid = winding_number(f, mid, 0j, budget)
        valid = w_mid.valid
        lo, hi = (mid, hi) if w_mid.winding == w_lo.winding else (lo, mid)
    return 0.0


def min_modulus_on_annulus(
    f: HoloMap,
    ann: Annulus,
    budget: Budget | None = None,
    threshold: float = 1.0,
) -> CertifiedBound:
    """Certified lower bound L for min |f| on the annulus (true min >= L).

    Monomials a z^d get the exact closed form |a| inner^d.  Other maps are
    scanned on the boundary circles only (``_CircleScan``, ``_annulus_floor``)
    with a second-order bound per arc, so the evaluations needed grow only
    logarithmically as min |f| approaches the threshold.  A sample with
    |f| <= threshold is a violation witness; the result is UNDECIDED when
    the threshold question is still open once the sample budget runs out
    or the arcs near the minimum reach rounding resolution, which is what
    an instance exactly at the threshold gets.
    """
    budget = budget or Budget()
    if isinstance(f, Series) and ann.outer >= f.validity_radius:
        raise DomainError("annulus exceeds the series validity disk")

    mono = f.monomial_form()
    if mono is not None:
        a, d = mono
        lb = abs(a) * ann.inner**d if d > 0 else abs(a)
        return CertifiedBound(lb, complex(ann.inner if d > 0 else ann.outer), grid_step=0.0,
                              lipschitz_bound=f.lipschitz_bound(ann.outer), status=CERTIFIED,
                              min_sampled=lb, threshold=threshold)

    lip_outer = f.lipschitz_bound(ann.outer)
    scan = _CircleScan(f, ann, threshold, budget.grid_max)
    lower = max(0.0, scan.floor(ann.inner))
    if ann.inner < ann.outer:
        lower = _annulus_floor(f, ann, scan, lower, budget)
    lower = min(lower, scan.best_val)  # polished samples may undercut a floor by rounding
    width = scan.best_val - lower
    return CertifiedBound(
        lower, scan.best_pt,
        grid_step=width * math.sqrt(2.0) / lip_outer if lip_outer > 0 and width > 0 else 0.0,
        lipschitz_bound=lip_outer,
        status=CERTIFIED if scan.violation or lower > threshold else UNDECIDED,
        min_sampled=scan.best_val, threshold=threshold)


@dataclass(frozen=True)
class WindingResult:
    """Discrete winding number with a validity flag.

    ``valid`` is True only when every argument increment stayed below pi/2
    and the sampled curve kept a certified distance (Lipschitz bound times
    arc step) from the target, which together force the discrete sum to
    equal the true winding number.
    """

    winding: int
    valid: bool
    samples: int
    min_distance: float

    def to_dict(self) -> dict:
        return {
            "winding": self.winding,
            "valid": self.valid,
            "samples": self.samples,
            "minDistance": self.min_distance,
        }


def winding_number(
    f: HoloMap,
    radius: float,
    target: complex,
    budget: Budget | None = None,
) -> WindingResult:
    """Winding number of f(radius * e^{i\theta}) around target."""
    budget = budget or Budget()
    if radius <= 0:
        raise ValueError("winding circle radius must be positive")
    if isinstance(f, Series) and radius >= f.validity_radius:
        raise DomainError("winding circle exceeds the series validity disk")
    tail_err = f.eval_error(radius) + f.eval_round_error(radius)
    lip = float(f.lipschitz_bound(radius))

    n = 256
    phi = f.eval(radius * np.exp(1j * (np.arange(n) * (2.0 * math.pi / n)))) - target
    while True:
        dist = np.abs(phi)
        min_dist = float(dist.min()) - tail_err
        u = phi / np.maximum(dist, 1e-300)  # raw products overflow past |f| ~ 1e154
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
        # n is 256 * 2^j, so the even angles (2k) pi/n of the doubled grid
        # round exactly to the old k (2 pi/n): only the odd ones are new
        odd = f.eval(radius * np.exp(1j * (np.arange(1, 2 * n, 2) * (math.pi / n)))) - target
        phi = np.stack([phi, odd], axis=1).ravel()
        n *= 2


@dataclass(frozen=True)
class CoverageResult:
    """Whether f(open disk of the given radius) covers the closed unit disk."""

    covers: bool | None
    status: str
    winding: WindingResult

    def to_dict(self) -> dict:
        return {
            "covers": self.covers,
            "status": self.status,
            "winding": self.winding.to_dict(),
        }


def covers_closed_unit_disk(
    f: HoloMap,
    r2: float,
    annulus_cert: CertifiedBound,
    budget: Budget | None = None,
) -> CoverageResult:
    """Decide whether the closed unit disk is contained in f(K_{r2}).

    Requires a certified bound min |f| > 1 on an annulus containing the
    circle |z| = r2.  Under that bound the image curve f(r2 e^{i\theta})
    avoids the closed unit disk entirely; the disk is connected and disjoint
    from the curve, so the winding number around any target in it (which by
    the argument principle counts preimages inside K_{r2}) is the same for
    all such targets.  Coverage of the whole disk therefore reduces to a
    single winding number around 0: >= 1 means every target has a preimage,
    0 means none do.
    """
    if not (annulus_cert.status == CERTIFIED and annulus_cert.lower_bound > 1.0):
        raise ValueError("coverage check requires a certified min |f| > 1 bound")
    mono = f.monomial_form()
    if mono is not None:
        d = mono[1]
        wr = WindingResult(d, True, 0, abs(mono[0]) * r2**d)
        return CoverageResult(d >= 1, CERTIFIED, wr)
    wr = winding_number(f, r2, 0j, budget)
    if not wr.valid:
        return CoverageResult(None, UNDECIDED, wr)
    return CoverageResult(wr.winding >= 1, CERTIFIED, wr)
