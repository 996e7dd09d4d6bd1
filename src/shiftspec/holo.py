"""Holomorphic maps and certified geometric predicates.

Maps are polynomials (exact) or power series with a geometrically bounded
coefficient tail (evaluate-only, with a documented truncation error).  The
predicates this module certifies are the two that drive every decision
downstream:

  * a lower bound for min |f| over a centered annulus: in closed form for
    monomials a z^d and affine maps a0 + a1 z, else via a 1-D
    branch-and-bound over arcs of its two boundary circles, each arc
    certified with a second-order (tangent segment plus curvature) bound;
    the minimum modulus principle carries it to the whole annulus once
    nothing leaves a zero there: a complete root placement with no disk on
    the annulus, or equal windings about 0 on both circles.  A placement
    with every disk inside the inner circle carries the inner circle's
    bound alone, by the maximum modulus theorem for z^d / f, so the outer
    circle is not scanned;
  * the winding number of the curve f(r e^{i\theta}) around a target, via
    argument increments on a doubling sample grid (each doubling evaluates
    only the new angles), declared valid once all increments are below pi/2
    and the curve provably stays away from the target between samples.

A polynomial keeps one root placement (``Polynomial.placement``): its
polished roots with inclusion disks, and whether the disks are disjoint
enough to hold one root each.  Condition A reads it for a root inside the
annulus and, by the argument principle, condition B's winding about 0 on
the inner circle, which is then the number of disks inside it; the kernel
test and the factor solver read the same placement, so a map is polished
once.  Series maps, and polynomials whose placement cannot settle a
circle, take the sampled windings.

Everything is deterministic: no randomness, order-independent reductions.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .budget import Budget, Report

__all__ = [
    "Polynomial",
    "Series",
    "HoloMap",
    "RootPlacement",
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


class RootRefinementError(ValueError):
    """Polynomial root polishing failed to reach the residual target."""


def _as_complex_tuple(coeffs) -> tuple[complex, ...]:
    return tuple(complex(c) for c in coeffs)


def _horner(coeffs: tuple[complex, ...], z, derivative: bool = False):
    """f(z), or with ``derivative`` the pair (f(z), f'(z)), in one Horner pass
    from the leading coefficient.  A number or a 0-d array runs the same
    recurrence in ``_horner_scalar`` and comes back as Python complex numbers
    with the bits a 0-d array would give.  Python numbers (numpy's float64 and
    complex128 subclass them) are told apart without ``np.ndim``, whose
    dispatch costs about as much as a whole scalar evaluation."""
    if not isinstance(z, (complex, float, int)):
        z = np.asarray(z)
        if z.ndim:
            # every step in place: the same products and sums as out * z + a
            out = np.empty(z.shape, complex)
            out.fill(coeffs[-1])
            der = np.zeros(z.shape, complex) if derivative else None
            for a in coeffs[-2::-1]:
                if derivative:
                    der *= z
                    der += out
                out *= z
                out += a
            return (out, der) if derivative else out
    f0, f1, _ = _horner_scalar(coeffs, complex(z))
    return (f0, f1) if derivative else f0


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
_TINY = math.ldexp(1.0, -1074)  # the smallest subnormal
# e^{i k 2 pi / 256}: [1::2] are the circle scan's first 128 arc centres and
# [::256 // n] the n-point winding grid, bit for bit as np.exp gives them
_CIRCLE = np.exp(1j * (np.arange(256) * (2.0 * math.pi / 256)))


def _round_error(coeffs: tuple[complex, ...], radius: float) -> float:
    """Allowance for float rounding in a Horner evaluation on |z| <= radius.

    Certified comparisons against a threshold must not rest on less
    clearance than this, otherwise the verdict would encode noise.  It is
    4(n+2) (eps sum |a_k| r^k + tiny sum r^k) with tiny the smallest
    subnormal: the second sum is the absolute (underflow) term of each
    rounding (Higham, *Accuracy and Stability of Numerical Algorithms*,
    §2.1), without which a map with subnormal values gets no allowance.
    """
    mag = powers = 0.0
    try:
        for n, c in enumerate(coeffs):
            p = radius**n
            mag += abs(c) * p
            powers += p
    except OverflowError:  # radius**n past the float range: no allowance is finite
        return math.inf
    return 4.0 * (len(coeffs) + 2) * (_EPS * mag + _TINY * powers)


def _derivative_round_error(coeffs: tuple[complex, ...], radius: float) -> float:
    """``_round_error`` for f' = sum n a_n z^(n-1) on |z| <= radius."""
    return _round_error([n * c for n, c in enumerate(coeffs)][1:], radius)


def _quadratic_roots(c: complex, b: complex, a: complex) -> list[complex]:
    """Roots of a z^2 + b z + c, a and c nonzero, by the stable quadratic
    formula: q = -(b + d) / 2 with the square root d of the discriminant
    signed so that b and d do not cancel, then q / a and c / q.  The
    coefficients are first scaled by a power of two (exactly) to a largest
    modulus in [1/2, 1), so b^2 and 4ac stay in range.  The root of larger
    modulus comes first, a tie going to the larger imaginary part (+i before
    -i for 1 + z^2)."""
    s = math.ldexp(1.0, -math.frexp(max(abs(a), abs(b), abs(c)))[1])
    a, b, c = a * s, b * s, c * s
    d = cmath.sqrt(b * b - 4.0 * a * c)
    if b.real * d.real + b.imag * d.imag < 0:
        d = -d
    q = -0.5 * (b + d)
    big, small = q / a, c / q
    return [big, small] if (abs(big), big.imag) >= (abs(small), small.imag) else [small, big]


def _root_seeds(coeffs: tuple[complex, ...]) -> list[complex]:
    """Root seeds of a polynomial with nonzero first and last coefficients:
    numpy's quotient -a_0 / a_1 for degree 1 (bit for bit the eigenvalue of
    ``np.roots``' 1 x 1 companion matrix), ``_quadratic_roots`` for degree 2
    and, from degree 3, the eigenvalues of the companion matrix built exactly
    as ``np.roots`` builds it.  A quotient past the float range is inf or
    NaN, with no numpy warning: the polish then fails, or leaves a NaN root."""
    degree = len(coeffs) - 1
    if degree == 0:
        return []
    if degree == 1:
        with np.errstate(over="ignore", invalid="ignore"):
            return [complex(np.complex128(-coeffs[0]) / coeffs[1])]
    if degree == 2:
        return _quadratic_roots(*coeffs)
    p = np.array(coeffs[::-1])
    companion = np.diag(np.ones(degree - 1, complex), -1)
    with np.errstate(over="ignore", invalid="ignore"):
        companion[0, :] = -p[1:] / p[0]
    return np.linalg.eigvals(companion).tolist()


def _root_radius(coeffs: tuple[complex, ...], z: complex, fz: complex, dz: complex,
                 allowance: float) -> float:
    """Radius about z of a disk that holds a root of f, from the computed
    f(z) and f'(z), whose errors are at most ``allowance`` and
    ``_derivative_round_error``.  With res = |f(z)| + allowance, the product
    form f = a_d prod (z - root) gives (res / |a_d|)^(1/d), and
    f'/f = sum 1/(z - root) gives d res / (|f'(z)| - its allowance) where
    that difference is positive."""
    degree = len(coeffs) - 1
    res = abs(fz) + allowance
    rho = (res / abs(coeffs[-1])) ** (1.0 / degree)
    slope = abs(dz) - _derivative_round_error(coeffs, abs(z))
    return min(rho, degree * res / slope) if slope > 0 else rho


@dataclass(frozen=True)
class RootPlacement:
    """Where the roots of a polynomial lie: a root of f lies within
    ``radii[i]`` of ``roots[i]`` (``Polynomial.roots(radii=True)``).  The
    last ``zeros`` roots are f's exact zero roots, counted from the
    coefficients, with radius 0.
    """

    roots: tuple[complex, ...]
    radii: tuple[float, ...]
    zeros: int

    @cached_property
    def complete(self) -> bool:
        """Whether the disks of the nonzero roots are pairwise disjoint and
        miss 0 (NaN fails every test).  Then each disk holds exactly one
        root, counted with multiplicity: the disjoint disks each hold at
        least one of the as many nonzero roots of f."""
        nonzero = len(self.roots) - self.zeros
        roots, radii = self.roots[:nonzero], self.radii[:nonzero]
        for i, (a, ra) in enumerate(zip(roots, radii)):
            if not abs(a) > ra:
                return False
            for b, rb in zip(roots[:i], radii[:i]):
                if not abs(a - b) > ra + rb:
                    return False
        return True

    def within(self, radius: float) -> list[complex]:
        """The roots whose disk lies in the open disk |z| < radius."""
        return [z for z, rho in zip(self.roots, self.radii) if abs(z) + rho < radius]

    def beyond(self, radius: float) -> list[complex]:
        """The roots whose disk lies outside the closed disk |z| <= radius."""
        return [z for z, rho in zip(self.roots, self.radii) if abs(z) - rho > radius]

    def zero_in(self, ann: Annulus) -> tuple[complex, float] | None:
        """(root, radius) of a disk inside the open annulus, which holds a
        zero of f, or None."""
        return next(((z, rho) for z, rho in zip(self.roots, self.radii)
                     if abs(z) - rho > ann.inner and abs(z) + rho < ann.outer), None)

    def count_within(self, ann: Annulus) -> int | None:
        """The number of roots of f inside the inner circle when the
        placement is complete and no disk meets the closed annulus, else
        None.  By the argument principle it is f's winding about 0 there."""
        inside = len(self.within(ann.inner))
        whole = self.complete and inside + len(self.beyond(ann.outer)) == len(self.roots)
        return inside if whole else None


class HoloMap:
    """A map f = sum a_n z^n given by its stored coefficients ``coeffs``.

    Every error bound is the stored coefficients' part plus the neglected
    tail's part, which ``_tails`` gives; a polynomial has no tail and an
    infinite validity radius.  Only a polynomial has a ``placement`` of its
    roots; a series map has None.
    """

    validity_radius = math.inf
    placement = None

    def monomial_form(self) -> tuple[complex, int] | None:
        return None

    def affine_form(self) -> tuple[complex, complex] | None:
        return None

    def _tails(self, radius: float) -> tuple[float, float, float]:
        """Bounds for the neglected tails of f, f' and f'' on |z| <= radius."""
        return 0.0, 0.0, 0.0

    def eval_error(self, radius: float) -> float:
        """Upper bound for the truncation error on |z| <= radius."""
        return self._tails(radius)[0]

    def eval_round_error(self, radius: float) -> float:
        return _round_error(self.coeffs, radius)

    def derivative_error(self, radius: float) -> float:
        """Allowance for the error of the computed f' on |z| <= radius:
        Horner rounding plus the neglected derivative tail."""
        return _derivative_round_error(self.coeffs, radius) + self._tails(radius)[1]

    def lipschitz_bound(self, radius: float) -> float:
        return _coeff_lipschitz(self.coeffs, radius) + self._tails(radius)[1]

    def second_derivative_bound(self, radius: float) -> float:
        return _coeff_curvature(self.coeffs, radius) + self._tails(radius)[2]


@dataclass(frozen=True)
class Polynomial(HoloMap):
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
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def monomial_form(self) -> tuple[complex, int] | None:
        """(a, d) when f = a z^d (a single nonzero coefficient), else None;
        with trailing zeros stripped, only the leading one can be nonzero."""
        d = self.degree
        return None if any(self.coeffs[:d]) else (self.coeffs[d], d)

    def affine_form(self) -> tuple[complex, complex] | None:
        """(a0, a1) when f = a0 + a1 z with a0 and a1 nonzero, else None."""
        return self.coeffs if self.degree == 1 and self.coeffs[0] else None

    def eval(self, z, derivative: bool = False):
        """f(z); with ``derivative``, the pair (f(z), f'(z))."""
        return _horner(self.coeffs, z, derivative)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0j,))
        return Polynomial(tuple((n + 1) * c for n, c in enumerate(self.coeffs[1:])))

    def roots(self, radii: bool = False):
        """All complex roots with multiplicity, Newton-polished; with
        ``radii``, the pair (roots, radii): a root of f lies within radii[i]
        of roots[i].

        Exact zero roots come last, as in ``np.roots``, with radius 0;
        ``_root_seeds`` starts the others.  Newton refines each seed, with one
        evaluation of f and f' per step, until the residual clears 1e-10 *
        (1 + max |coeff|), and the root is accepted within that target plus
        Horner's rounding allowance at its own modulus.  Each radius comes
        from the f and f' of the last step (``_root_radius``).  No root is a
        signed zero.
        """
        if self.degree < 1:
            raise ValueError("roots are defined for degree >= 1 polynomials")
        zeros = 0  # exact zero roots; the leading coefficient is nonzero
        while self.coeffs[zeros] == 0:
            zeros += 1
        target = 1e-10 * (1.0 + max(map(abs, self.coeffs)))
        roots, residuals, disks, failed = [], [], [], False
        for z in _root_seeds(self.coeffs[zeros:]):
            fz, dz = self.eval(z, derivative=True)
            for _ in range(8):
                if abs(fz) <= 0.25 * target or dz == 0:
                    break
                z = z - fz / dz
                fz, dz = self.eval(z, derivative=True)
            z = complex(z.real + 0.0, z.imag + 0.0)  # -0.0 + 0.0 is +0.0
            allowance = self.eval_round_error(abs(z))
            failed = failed or abs(fz) > target + allowance
            roots.append(z)
            residuals.append(abs(fz))
            if radii:
                disks.append(_root_radius(self.coeffs, z, fz, dz, allowance))
        if failed:
            raise RootRefinementError(
                f"root refinement residuals {residuals} exceed {target}"
            )
        roots += [0j] * zeros
        return (roots, disks + [0.0] * zeros) if radii else roots

    @property
    def placement(self) -> RootPlacement:
        """The polished roots with their disks, computed on first use and
        kept on the map, so condition A, condition B, the kernel and the
        solver share one polish.  A polish that fails raises its error
        (``RootRefinementError``; numpy's ``LinAlgError`` for a companion
        matrix past the float range) again on every use."""
        placed = self.__dict__.get("_placement")
        if placed is None:
            try:
                roots, radii = self.roots(radii=True)
                zeros = 0  # exact zero roots, listed last
                while not self.coeffs[zeros]:
                    zeros += 1
                placed = RootPlacement(tuple(roots), tuple(radii), zeros)
            except (ValueError, ArithmeticError) as exc:
                placed = exc
            self.__dict__["_placement"] = placed
        if isinstance(placed, Exception):
            raise type(placed)(*placed.args)
        return placed

    def to_dict(self) -> dict:
        return {"kind": "poly", "coeffs": [[c.real, c.imag] for c in self.coeffs]}


@dataclass(frozen=True)
class Series(HoloMap):
    """Power series with |a_n| <= tail_bound * tail_ratio^n beyond the stored
    coefficients, evaluable on |z| < validity_radius.

    Truncation error at |z| <= rho is tail_bound * (tail_ratio*rho)^(N+1)
    / (1 - tail_ratio*rho) with N the last stored index, which is finite on
    the whole validity disk because tail_ratio * validity_radius <= 1 is
    required at construction.  That is the only constraint on tail_ratio
    beyond positivity: it may exceed 1 when validity_radius < 1.  The tail
    bounds still refuse a radius whose rounded product tail_ratio * radius
    reaches 1.
    """

    coeffs: tuple[complex, ...]
    tail_bound: float
    tail_ratio: float
    validity_radius: float = field()  # required, not HoloMap's infinite default

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_complex_tuple(self.coeffs))
        object.__setattr__(self, "tail_bound", float(self.tail_bound))
        object.__setattr__(self, "tail_ratio", float(self.tail_ratio))
        object.__setattr__(self, "validity_radius", float(self.validity_radius))
        if not self.coeffs:
            raise ValueError("series needs at least one stored coefficient")
        if not self.tail_ratio > 0.0:
            raise ValueError("tail ratio must be positive")
        if self.tail_bound < 0:
            raise ValueError("tail bound must be nonnegative")
        if not (self.validity_radius > 0):
            raise ValueError("validity radius must be positive")
        if self.tail_ratio * self.validity_radius > 1.0:
            raise ValueError("validity radius too large for the tail ratio "
                             "(need tail_ratio * radius <= 1)")

    def eval(self, z, derivative: bool = False):
        """Stored part of f at z; with ``derivative``, the pair (f(z), f'(z)).
        ``eval_error`` and ``derivative_error`` bound the neglected tails."""
        size = abs(z) if isinstance(z, (complex, float, int)) else np.max(np.abs(z))
        if size >= self.validity_radius:
            raise DomainError(f"|z| >= validity radius {self.validity_radius}")
        return _horner(self.coeffs, z, derivative)

    def _tails(self, radius: float) -> tuple[float, float, float]:
        """With B = tail_bound, q = tail_ratio, s = q radius and m stored
        coefficients: B sum_{n>=m} s^n = B s^m / (1 - s) for f,
        B sum_{n>=m} n q^n r^(n-1) for f', and B sum_{n>=m} n (n-1) q^n
        r^(n-2) = B q^2 (d/ds)^2 [s^m / (1 - s)] for f''."""
        m, b, q = len(self.coeffs), self.tail_bound, self.tail_ratio
        s = q * radius
        if radius >= self.validity_radius or s >= 1.0:
            raise DomainError("radius outside validity disk")
        return (b * s**m / (1.0 - s),
                b * q * s ** (m - 1) * (m * (1 - s) + s) / (1 - s) ** 2,
                b * q**2 * (m * (m - 1) * s ** max(m - 2, 0) * (1 - s) ** 2
                            + 2 * m * s ** (m - 1) * (1 - s) + 2 * s**m) / (1 - s) ** 3)

    def to_dict(self) -> dict:
        return {"kind": "series", "coeffs": [[c.real, c.imag] for c in self.coeffs],
                "tailBound": self.tail_bound, "tailRatio": self.tail_ratio,
                "radius": self.validity_radius}


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
class Annulus(Report):
    """{z : inner <= |z| <= outer}, centered at 0."""

    inner: float
    outer: float

    def __post_init__(self):
        object.__setattr__(self, "inner", float(self.inner))
        object.__setattr__(self, "outer", float(self.outer))
        if not (0.0 <= self.inner <= self.outer):
            raise ValueError("need 0 <= inner <= outer")


# the J-class threshold: condition A asks whether min |f| on the annulus exceeds it
_THRESHOLD = 1.0


@dataclass(frozen=True)
class CertifiedBound(Report):
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
    ``inner_winding`` keeps (radius, winding about 0) of the inner circle
    for condition B when it was taken, read from the root placement or
    given by the affine closed form; it is no part of the value or the
    JSON.  ``root_radius`` is set when a root disk inside the open annulus
    witnesses the violation: a zero of f lies within it of
    ``witness_point``, and ``min_sampled`` and ``lower_bound`` are 0.  The
    verdict's notes carry it, not the JSON of the bound.
    """

    lower_bound: float
    witness_point: complex
    grid_step: float
    lipschitz_bound: float
    status: str
    min_sampled: float
    threshold: float = _THRESHOLD
    inner_winding: tuple[float, WindingResult] | None = field(default=None, compare=False, repr=False)
    root_radius: float | None = field(default=None, repr=False)

    @property
    def width(self) -> float:
        return self.min_sampled - self.lower_bound

    @property
    def certifies_above(self) -> bool:
        return self.status == CERTIFIED and self.lower_bound > self.threshold

    @property
    def certifies_violation(self) -> bool:
        return self.status == CERTIFIED and self.min_sampled <= self.threshold


# certification width (gap between the smallest sampled value and the
# certified lower bound) that arc refinement aims for; no refinement pass
# takes the scan past grid_max (see _CircleScan)
_WIDTH_TARGET = 1e-3
# Newton steps on |f|^2 along the circle from a circle's smallest sample
_POLISH_STEPS = 3
# points in a circle's first scan pass (the odd points of _CIRCLE), and the
# most a refinement pass fills when it splits few arcs: a pass costs about as
# much numpy dispatch at 4 points as at 128, so splitting a few arcs several
# levels deep at once saves the passes that halving one level at a time takes
_PASS_POINTS = 128


def _fold_min(lo: float, floors: np.ndarray, where) -> float:
    """min(lo, floors[where]), or -inf once one of those floors is NaN: an
    arc whose floor could not be computed is bounded by nothing."""
    m = float(floors.min(where=where, initial=math.inf))
    return min(lo, m) if m == m else -math.inf


class _CircleScan:
    """1-D branch-and-bound for min |f| on circles |z| = r in an annulus.

    A circle starts as _PASS_POINTS = 128 equal arcs, centred on the odd
    points of the table ``_CIRCLE``.  Write g(t) = f(r e^{it}); on an arc
    t_c +- h, Taylor's theorem with M = sup |g''| gives

        |g| >= dist(0, g(t_c) + g'(t_c) [-h, h]) - M h^2 / 2,

    with g' = i z f'(z) and M = r sum n|a_n| r^(n-1) + r^2 sum n(n-1)|a_n|
    r^(n-2).  The floor of an arc is the larger of this second-order bound
    and the first-order |g(t_c)| - lip r h, less the evaluation allowance
    for g and h times that for g'.  f and f' come from one Horner pass.
    Arcs floored above max(threshold, smallest sample - _WIDTH_TARGET) are
    retired (a NaN floor never is) and each of the rest is split into 2^k
    equal sub-arcs, the ones k halvings would make, in one pass: k is the
    largest that keeps the pass within 128 points (k = 1 when more than 64
    arcs are open) and goes no finer than the first level where the g'
    allowance times h plus M h^2 / 2 is within the evaluation allowance.
    This goes on until no arc is open or a sample witnesses |f| <= threshold.
    Once the open arcs reach that rounding resolution, no split can lift a
    floor by more than rounding noise, so they retire into the bound and an
    instance at the threshold comes back UNDECIDED.  grid_max bounds the
    evaluations of all circles together: a pass that would go past it takes
    the largest k that fits instead and is the circle's last, and when not
    even a halving fits, the open arcs retire as at resolution.  Until the
    budget cuts a pass, a larger grid_max makes the same passes, and its
    cut pass is never coarser (a cut pass that went on could end finer at
    a smaller budget than at a larger one).  Newton steps on |g|^2 run at
    two points, at most _POLISH_STEPS each.  When the first pass leaves an
    arc floored at or below the threshold but samples no witness, they probe
    for one from that pass's smallest sample: a probe sample with |f| plus
    the allowance at or below the threshold is the witness and ends the
    circle, and any other probe sample is dropped, so a probe that finds
    none changes no sample.  Without a witness at the end, they sharpen the
    samples from the circle's smallest one; they never move the bound.
    Only each circle's 128-point first pass and these steps can take a scan
    past grid_max: 1 + z^2 at its exact threshold spends 134 evaluations on
    a circle and 265 on an annulus at grid_max 64 (128 + 3 + 3 on the
    inner circle; the outer one's first pass floors every arc above 1).
    """

    def __init__(self, f: HoloMap, ann: Annulus, grid_max: int):
        self.f, self.grid_max = f, grid_max
        self.tail_err = f.eval_error(ann.outer) + f.eval_round_error(ann.outer)
        self.evals, self.best_val, self.best_pt = 0, math.inf, complex(ann.outer)
        self._scratch = np.empty((3, _PASS_POINTS))

    def _buffers(self, m: int) -> np.ndarray:
        """Three real buffers of m points for one pass, grown as passes grow."""
        if self._scratch.shape[1] < m:
            self._scratch = np.empty((3, m))
        return self._scratch[:, :m]

    @property
    def violation(self) -> bool:
        return self.best_val + self.tail_err <= _THRESHOLD

    def floor(self, r: float) -> float:
        """Lower bound for |f| on |z| = r, possibly negative."""
        f = self.f
        lip = f.lipschitz_bound(r)
        curv = r * lip + r * r * f.second_derivative_bound(r)  # sup |g''|
        slope_err = r * f.derivative_error(r)  # allowance for the computed g'

        def spread(n: int) -> tuple[float, float]:
            """Half-width h of the arcs of level n and the second-order
            terms slope_err h + curv h^2 / 2 on them."""
            h = 0.5 * (2.0 * math.pi / n) + 4.0 * _EPS  # the slack covers the rounded centres
            return h, slope_err * h + 0.5 * curv * h * h

        # arc k of level n is [k, k + 1] * 2 pi / n
        n, arcs, z = _PASS_POINTS, np.arange(_PASS_POINTS), r * _CIRCLE[1::2]
        retired, here, last = math.inf, (math.inf, 0.0), False
        while True:
            h, err = spread(n)
            val, der = f.eval(z, True)
            mod, speed, work = self._buffers(len(z))
            np.abs(val, out=mod)
            self.evals += len(mod)
            i = int(mod.argmin())
            if mod[i] != mod[i]:  # argmin stops at a NaN, which is no sample
                i = int(np.nan_to_num(mod, nan=math.inf).argmin())
            least = float(mod[i])
            if least < here[0]:
                here = (least, (int(arcs[i]) + 0.5) * (2.0 * math.pi / n))
                self._sample(least, complex(z[i]))
            # distance from 0 to val + i x t, |t| <= h, x = z f'(z), in the
            # frame turning i x onto the real axis; no modulus is squared,
            # so |f| up to the float range is safe.  In place, each step is
            # the ufunc of v = val * (conj(x) / max(|x|, 1e-300)), dist =
            # hypot(max(|v.imag| - |x| h, 0), v.real) and floors = fmax(mod -
            # (lip r h + tail), dist - (err + tail)) on the same operands
            x = np.multiply(z, der, out=der)
            np.abs(x, out=speed)
            np.maximum(speed, 1e-300, out=work)
            np.conjugate(x, out=x)
            x /= work
            v = np.multiply(val, x, out=val)
            np.abs(v.imag, out=work)
            speed *= h
            work -= speed
            np.maximum(work, 0.0, out=work)
            dist = np.hypot(work, v.real, out=work)
            dist -= err + self.tail_err
            floors = np.subtract(mod, lip * r * h + self.tail_err, out=mod)
            np.fmax(floors, dist, out=floors)
            if n == _PASS_POINTS and not self.violation and floors.min() <= _THRESHOLD:
                # the probe: Newton from the first pass's smallest sample,
                # keeping only a witness
                self._polish(r, here, witness_only=True)
            if self.violation:
                return _fold_min(retired, floors, True)
            done = floors > max(_THRESHOLD, self.best_val - _WIDTH_TARGET)
            keep = ~done  # a NaN floor stays open
            kept = arcs[keep]
            if len(kept) < len(arcs):
                retired = _fold_min(retired, floors, done)
            if not len(kept):
                break
            if err <= self.tail_err or last or self.evals + 2 * len(kept) > self.grid_max:
                retired = _fold_min(retired, floors, keep)
                break
            k = 1
            while len(kept) << (k + 1) <= _PASS_POINTS and spread(n << k)[1] > self.tail_err:
                k += 1
            room = (self.grid_max - self.evals) // len(kept)  # sub-arcs per arc within grid_max
            last, k = room < 1 << k, min(k, room.bit_length() - 1)
            arcs, n = ((kept << k)[:, None] + np.arange(1 << k)).ravel(), n << k
            t = arcs + 0.5
            t *= 2.0 * math.pi / n
            z = np.multiply(t, 1j)  # r exp(i t), as r * np.exp(1j * t) gives it
            np.exp(z, out=z)
            z *= r
        self._polish(r, here)
        return retired

    def _sample(self, val: float, z: complex) -> None:
        if val < self.best_val:
            self.best_val, self.best_pt = val, z

    def _polish(self, r: float, start: tuple[float, float], witness_only: bool = False) -> None:
        """Newton steps on |g(t)|^2 from (|g(t0)|, t0), taken while they lower
        |g| and kept as samples, or with ``witness_only`` only a sample that
        witnesses |f| <= threshold.  Each step is t -= Re(g'/g) / (|g'/g|^2 +
        Re(g''/g))."""
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
            if not witness_only or val + self.tail_err <= _THRESHOLD:
                self._sample(val, z)


def _read_placement(f: HoloMap, ann: Annulus):
    """(zero_in, count_within) of f's complete root placement on the
    annulus, or None: for a series map, an inner radius 0, an incomplete
    placement, a failed polish or a root whose modulus leaves the float
    range, the sampled windings decide."""
    if ann.inner <= 0:
        return None
    try:
        place = f.placement
        if place is None or not place.complete:
            return None
        return place.zero_in(ann), place.count_within(ann)
    except (ValueError, ArithmeticError):
        return None


def _annulus_floor(f: HoloMap, ann: Annulus, scan: _CircleScan, inner: float, outer: float,
                   budget: Budget) -> tuple[float, tuple[float, WindingResult] | None]:
    """Lower bound for min |f| on inner < outer from the sampled windings,
    given both circles' floors, and (inner radius, winding about 0 there).

    If f has no zero in the annulus, which holds exactly when the windings
    about 0 on both circles are valid and equal (argument principle), the
    minimum lies on a boundary circle (minimum modulus principle).  Else the
    bound is 0; if the windings differ, a zero lies between the circles and
    the annulus is halved toward it, the winding at the midpoint picking
    the half, until a circle samples |f| <= threshold or grid_max runs out.
    """
    w_lo, w_hi = (winding_number(f, r, 0j, budget) for r in (ann.inner, ann.outer))
    valid = w_lo.valid and w_hi.valid
    if valid and w_lo.winding == w_hi.winding:
        return max(0.0, min(inner, outer)), (ann.inner, w_lo)
    lo, hi = ann.inner, ann.outer
    while valid and scan.evals < scan.grid_max:
        mid = 0.5 * (lo + hi)
        scan.floor(mid)
        if scan.violation:
            break
        w_mid = winding_number(f, mid, 0j, budget)
        valid = w_mid.valid
        lo, hi = (mid, hi) if w_mid.winding == w_lo.winding else (lo, mid)
    return 0.0, (ann.inner, w_lo)


def _affine_bound(f: HoloMap, ann: Annulus, a0: complex, a1: complex) -> CertifiedBound:
    """Condition A for f = a0 + a1 z, a0 and a1 nonzero, in closed form.

    With A = |a1|, B = |a0| and u = -(a0 / B)(conj(a1) / A) the root's unit
    direction, |f(z)| = A |z - u B / A|, so min |f| on the annulus is
    max(0, A inner - B, B - A outer), taken at the annulus point nearest
    the root: inner u, outer u, or the root itself.  The bound is that
    minimum less ``eval_round_error(outer)``, 16 eps (B + A outer) plus the
    underflow term, which covers the few roundings of A, B and the two
    differences; no quotient is formed unless the root lies in the annulus,
    where B / A is at most about outer.  The sample at the nearest point is
    the witness when it is at most 1 less that allowance.  A tie (a minimum
    within the allowance of 1) comes back UNDECIDED.  When |A inner - B|
    clears the allowance, the root lies strictly inside or outside the inner
    circle, so the winding about 0 there is 1 or 0, kept with no samples.
    """
    big_a, big_b = abs(a1), abs(a0)
    allowance = f.eval_round_error(ann.outer)
    inside, outside = big_a * ann.inner - big_b, big_b - big_a * ann.outer
    if inside > 0:
        radius = ann.inner
    elif outside > 0:
        radius = ann.outer
    else:
        radius = min(max(big_b / big_a, ann.inner), ann.outer)
    point = -(a0 / big_b) * (a1.conjugate() / big_a) * radius
    sampled = abs(f.eval(point))
    lower = max(0.0, max(inside, outside) - allowance)
    distance = abs(inside) - allowance
    winding = None
    if ann.inner > 0 and distance > 0:
        winding = (ann.inner, WindingResult(int(inside > 0), True, 0, distance))
    decided = lower > _THRESHOLD or sampled + allowance <= _THRESHOLD
    return CertifiedBound(lower, point, grid_step=0.0, lipschitz_bound=f.lipschitz_bound(ann.outer),
                          status=CERTIFIED if decided else UNDECIDED, min_sampled=sampled,
                          inner_winding=winding)


def min_modulus_on_annulus(
    f: HoloMap,
    ann: Annulus,
    budget: Budget | None = None,
) -> CertifiedBound:
    """Certified lower bound L for min |f| on the annulus (true min >= L).

    Monomials a z^d get the exact closed form |a| inner^d, and affine maps
    a0 + a1 z with a0 nonzero the closed form max(0, |a1| inner - |a0|,
    |a0| - |a1| outer) less a rounding allowance (``_affine_bound``).
    Other polynomials and every series map are scanned on the boundary
    circles only (``_CircleScan``) with a second-order bound per arc, so the
    evaluations needed grow only logarithmically as min |f| approaches the
    J-class threshold 1.  A sample with |f| <= 1 is a violation witness.
    When the inner circle's floor exceeds 1 with no witness, a polynomial
    with inner radius > 0 reads its root placement at once.  If it is
    complete and every disk lies inside the inner circle, f / z^d (d the
    degree) has no zero on |z| >= inner, infinity included, so the maximum
    modulus theorem for z^d / f gives
    |f(z)| >= (|z| / inner)^d min_{|u| = inner} |f(u)| there: the inner
    floor holds on the whole annulus and the outer circle is not scanned.
    Otherwise, once both scans pass without a witness, a polynomial with
    inner radius > 0 reads its complete root placement: a disk inside the
    open annulus holds a zero, the witness; if no disk meets the closed
    annulus, f has no zero there and the smaller circle floor holds on the
    whole annulus.  In both cases the disks inside the inner circle count
    the winding about 0 on it, kept with no samples and the inner floor as
    its distance.  Otherwise the sampled windings decide
    (``_annulus_floor``).  The result is UNDECIDED when
    the threshold question is still open once the sample budget runs out
    or the arcs near the minimum reach rounding resolution, which is what
    an instance exactly at the threshold gets.  A map whose rounding
    allowance on the annulus overflows is refused with ValueError: no float
    evaluation there could certify anything.
    """
    budget = budget or Budget()
    if ann.outer >= f.validity_radius:
        raise DomainError("annulus exceeds the series validity disk")
    if not math.isfinite(f.eval_round_error(ann.outer)):
        raise ValueError(f"sum |a_n| r^n at r = {ann.outer} overflows the float range")

    mono = f.monomial_form()
    if mono is not None:
        a, d = mono
        lb = abs(a) * ann.inner**d if d > 0 else abs(a)
        return CertifiedBound(lb, complex(ann.inner if d > 0 else ann.outer), grid_step=0.0,
                              lipschitz_bound=f.lipschitz_bound(ann.outer), status=CERTIFIED,
                              min_sampled=lb)
    affine = f.affine_form()
    if affine is not None:
        return _affine_bound(f, ann, *affine)

    lip_outer = f.lipschitz_bound(ann.outer)
    scan = _CircleScan(f, ann, budget.grid_max)
    inner = outer = max(0.0, scan.floor(ann.inner))
    circle = ann.inner == ann.outer
    placed = None if scan.violation or not (circle or inner > _THRESHOLD) else _read_placement(f, ann)
    # with every root inside the inner circle, its certified floor holds on
    # the whole annulus (see above); else the outer circle is scanned too
    if not (circle or scan.violation or placed and placed[1] == f.degree):
        outer = scan.floor(ann.outer)
        placed = None if scan.violation else placed or _read_placement(f, ann)
    zero, count = placed or (None, None)
    if zero is not None:
        return CertifiedBound(0.0, zero[0], grid_step=0.0, lipschitz_bound=lip_outer,
                              status=CERTIFIED, min_sampled=0.0, root_radius=zero[1])
    lower, inner_winding = inner, None
    if count is not None:
        lower = max(0.0, min(inner, outer))
        inner_winding = (ann.inner, WindingResult(count, True, 0, inner))
    elif scan.violation:
        lower = inner if circle else 0.0
    elif not circle:
        lower, inner_winding = _annulus_floor(f, ann, scan, inner, outer, budget)
    lower = min(lower, scan.best_val)  # polished samples may undercut a floor by rounding
    width = scan.best_val - lower
    return CertifiedBound(
        lower, scan.best_pt,
        grid_step=width * math.sqrt(2.0) / lip_outer if lip_outer > 0 and width > 0 else 0.0,
        lipschitz_bound=lip_outer,
        status=CERTIFIED if scan.violation or lower > _THRESHOLD else UNDECIDED,
        min_sampled=scan.best_val, inner_winding=inner_winding)


@dataclass(frozen=True)
class WindingResult(Report):
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
    if radius >= f.validity_radius:
        raise DomainError("winding circle exceeds the series validity disk")
    tail_err = f.eval_error(radius) + f.eval_round_error(radius)
    lip = float(f.lipschitz_bound(radius))

    n = min(256, 1 << (budget.winding_max.bit_length() - 1))  # a power of two within the cap
    phi = f.eval(radius * _CIRCLE[::256 // n]) - target
    while True:
        dist = np.abs(phi)
        min_dist = float(dist.min()) - tail_err
        u = phi / np.maximum(dist, 1e-300)  # raw products overflow past |f| ~ 1e154
        turn = np.concatenate((u[1:], u[:1])) * np.conj(u)
        increments = np.arctan2(turn.imag, turn.real)  # np.angle without its wrapper
        total = float(increments.sum()) / (2.0 * math.pi)
        if not (math.isfinite(total) and math.isfinite(min_dist)):
            # a sample or the allowance overflowed: no grid can certify
            return WindingResult(0, False, n, 0.0)
        wind = int(round(total))
        arc = radius * 2.0 * math.pi / n
        ok = (
            min_dist > lip * arc
            and float(np.abs(increments).max()) < 0.5 * math.pi
            and abs(total - wind) < 0.25
        )
        if ok or 2 * n > budget.winding_max:
            return WindingResult(wind, ok, n, min_dist)
        # n is a power of two, so the even angles (2k) pi/n of the doubled
        # grid round exactly to the old k (2 pi/n): only the odd ones are new
        odd = f.eval(radius * np.exp(1j * (np.arange(1, 2 * n, 2) * (math.pi / n)))) - target
        phi = np.stack([phi, odd], axis=1).ravel()
        n *= 2


def _origin_winding(f: HoloMap, r2: float, cert: CertifiedBound,
                    budget: Budget | None) -> WindingResult:
    """Winding of f about 0 on |z| = r2, or condition A's if it took that one."""
    radius, wr = cert.inner_winding or (None, None)
    return wr if radius == r2 else winding_number(f, r2, 0j, budget)


@dataclass(frozen=True)
class CoverageResult(Report):
    """Whether f(open disk of the given radius) covers the closed unit disk."""

    covers: bool | None
    status: str
    winding: WindingResult


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
    wr = _origin_winding(f, r2, annulus_cert, budget)
    if not wr.valid:
        return CoverageResult(None, UNDECIDED, wr)
    return CoverageResult(wr.winding >= 1, CERTIFIED, wr)
