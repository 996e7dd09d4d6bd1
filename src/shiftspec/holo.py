"""Holomorphic maps and certified geometric predicates.

Maps are polynomials (exact) or power series with a geometrically bounded
coefficient tail (evaluate-only, with a documented truncation error).  The
predicates this module certifies are the two that drive every decision
downstream:

  * a lower bound for min |f| over a centered annulus, via an adaptively
    refined polar grid whose cells are certified with a Lipschitz bound for
    f on the cell (branch-and-bound: cells that cannot dip below the
    certification bar are retired, the rest are split);
  * the winding number of the curve f(r e^{i\theta}) around a target, via
    argument increments on a doubling sample grid, declared valid once all
    increments are below pi/2 and the curve provably stays away from the
    target between samples.

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


def _coeff_lipschitz(coeffs: tuple[complex, ...], radius):
    """sum n |a_n| radius^(n-1); an upper bound for |f'| on |z| <= radius."""
    r = np.asarray(radius, dtype=float)
    out = np.zeros_like(r)
    for n in range(len(coeffs) - 1, 0, -1):
        out = out * r + n * abs(coeffs[n])
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

    def eval(self, z):
        out = _horner(self.coeffs, z)
        if np.ndim(z) == 0:
            return complex(out)
        return out

    def eval_error(self, radius: float) -> float:
        return 0.0

    def eval_round_error(self, radius: float) -> float:
        return _round_error(self.coeffs, radius)

    def lipschitz_bound(self, radius):
        out = _coeff_lipschitz(self.coeffs, radius)
        if np.ndim(radius) == 0:
            return float(out)
        return out

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

    def eval(self, z):
        self._check_domain(z)
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

    def lipschitz_bound(self, radius):
        scalar = np.ndim(radius) == 0
        r = np.atleast_1d(np.asarray(radius, dtype=float))
        if np.any(r >= self.validity_radius):
            raise DomainError("radius outside validity disk")
        out = _coeff_lipschitz(self.coeffs, r)
        # derivative tail: t * sum_{n>=M} n q^n r^(n-1), M = number stored
        m = len(self.coeffs)
        s = self.tail_ratio * r
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(
                r > 0,
                (self.tail_bound / np.where(r > 0, r, 1.0))
                * s**m
                * (m * (1 - s) + s)
                / (1 - s) ** 2,
                self.tail_bound * self.tail_ratio if m == 1 else 0.0,
            )
        out = out + tail
        return float(out[0]) if scalar else out

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

    def contains(self, z: complex, tol: float = 0.0) -> bool:
        return self.inner - tol <= abs(z) <= self.outer + tol

    def to_dict(self) -> dict:
        return {"inner": self.inner, "outer": self.outer}


@dataclass(frozen=True)
class CertifiedBound:
    """Certified lower bound for min |f| over a region.

    ``lower_bound <= true min`` always holds.  ``status`` is CERTIFIED when
    the bound answers the threshold question it was computed for (either
    lower_bound > threshold, or a sampled point witnesses |f| <= threshold),
    UNDECIDED when the budget ran out in between.  The reconstruction
    inequality lower_bound <= min_sampled - lipschitz_bound * grid_step *
    sqrt(2)/2 holds by construction (grid_step is the effective step).
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
# certified lower bound) that grid refinement aims for; the hard stop is
# the grid_max budget
_WIDTH_TARGET = 1e-3


def min_modulus_on_annulus(
    f: HoloMap,
    ann: Annulus,
    budget: Budget | None = None,
    threshold: float = 1.0,
) -> CertifiedBound:
    """Certified lower bound L for min |f| on the annulus (true min >= L).

    Monomials a z^d get the exact closed form |a| inner^d.  Otherwise a
    polar cell grid is refined: each cell is scored by |f(center)| minus a
    radius-local Lipschitz bound times the cell covering radius; cells that
    cannot dip below max(threshold, min_sampled - _WIDTH_TARGET) are retired,
    the rest are split along their longer side.  Refinement stops when no
    cells remain, a sampled point already witnesses |f| <= threshold, or the
    sample budget is exhausted (UNDECIDED if the threshold question is still
    open at that point).
    """
    budget = budget or Budget()
    if isinstance(f, Series) and ann.outer >= f.validity_radius:
        raise DomainError("annulus exceeds the series validity disk")

    mono = f.monomial_form()
    if mono is not None:
        a, d = mono
        lb = abs(a) * ann.inner**d if d > 0 else abs(a)
        return CertifiedBound(
            lower_bound=lb,
            witness_point=complex(ann.inner if d > 0 else ann.outer),
            grid_step=0.0,
            lipschitz_bound=float(f.lipschitz_bound(ann.outer)),
            status=CERTIFIED,
            min_sampled=lb,
            threshold=threshold,
        )

    tail_err = f.eval_error(ann.outer) + f.eval_round_error(ann.outer)
    lip_outer = float(f.lipschitz_bound(ann.outer))

    n_r = 1 if ann.outer == ann.inner else 8
    n_t = 128
    r_edges = np.linspace(ann.inner, ann.outer, n_r + 1)
    t_edges = np.linspace(0.0, 2.0 * math.pi, n_t + 1)
    r_lo = np.repeat(r_edges[:-1], n_t)
    r_hi = np.repeat(r_edges[1:], n_t)
    t_lo = np.tile(t_edges[:-1], n_r)
    t_hi = np.tile(t_edges[1:], n_r)

    evals = 0
    best_val = math.inf
    best_pt = complex(ann.outer)
    retired_floor = math.inf
    active_floor = math.inf
    violation = False

    while True:
        rc = 0.5 * (r_lo + r_hi)
        tc = 0.5 * (t_lo + t_hi)
        centers = rc * np.exp(1j * tc)
        vals = np.abs(f.eval(centers))
        evals += len(vals)

        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_pt = complex(centers[i])

        cov = np.sqrt((0.5 * (r_hi - r_lo)) ** 2 + (0.5 * r_hi * (t_hi - t_lo)) ** 2)
        floors = vals - tail_err - np.asarray(f.lipschitz_bound(r_hi), dtype=float) * cov

        if best_val + tail_err <= threshold:
            violation = True
            active_floor = float(floors.min())
            break

        bar = max(threshold, best_val - _WIDTH_TARGET)
        keep = floors <= bar
        if np.any(~keep):
            retired_floor = min(retired_floor, float(floors[~keep].min()))
        if not np.any(keep):
            active_floor = math.inf
            break
        if evals >= budget.grid_max:
            active_floor = float(floors[keep].min())
            break

        # split surviving cells along their longer side (arc vs radial extent)
        r_lo, r_hi = r_lo[keep], r_hi[keep]
        t_lo, t_hi = t_lo[keep], t_hi[keep]
        radial = (r_hi - r_lo) >= r_hi * (t_hi - t_lo)
        r_mid = 0.5 * (r_lo + r_hi)
        t_mid = 0.5 * (t_lo + t_hi)
        r_lo = np.concatenate([r_lo, np.where(radial, r_mid, r_lo)])
        r_hi = np.concatenate([np.where(radial, r_mid, r_hi), r_hi])
        t_lo = np.concatenate([t_lo, np.where(radial, t_lo, t_mid)])
        t_hi = np.concatenate([np.where(radial, t_hi, t_mid), t_hi])

    lower = max(0.0, min(retired_floor, active_floor))
    if violation or lower > threshold:
        status = CERTIFIED
    else:
        status = UNDECIDED
    if lip_outer > 0 and lower < best_val:
        grid_step = (best_val - lower) * math.sqrt(2.0) / lip_outer
    else:
        grid_step = 0.0
    return CertifiedBound(
        lower_bound=lower,
        witness_point=best_pt,
        grid_step=grid_step,
        lipschitz_bound=lip_outer,
        status=status,
        min_sampled=best_val,
        threshold=threshold,
    )


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
    result = None
    while True:
        theta = np.arange(n) * (2.0 * math.pi / n)
        phi = f.eval(radius * np.exp(1j * theta)) - target
        dist = np.abs(phi)
        min_dist = float(dist.min()) - tail_err
        increments = np.angle(np.roll(phi, -1) * np.conj(phi))
        total = float(increments.sum()) / (2.0 * math.pi)
        wind = int(round(total))
        arc = radius * 2.0 * math.pi / n
        ok = (
            min_dist > lip * arc
            and float(np.abs(increments).max()) < 0.5 * math.pi
            and abs(total - wind) < 0.25
        )
        result = WindingResult(wind, ok, n, min_dist)
        if ok or 2 * n > budget.winding_max:
            return result
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
