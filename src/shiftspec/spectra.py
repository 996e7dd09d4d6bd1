"""Spectral pictures of weighted shifts and their holomorphic images.

Spectra in scope are never enumerated pointwise: each one is the image of a
centered disk or annulus under the map, so a region is stored as (radii,
map) and queried by sampling.  For the weight sequence w with radii
(r1, r2, r3):

  * the full spectrum of the image operator is f(closed disk r1);
  * the approximate point spectrum on the adjoint side is f(annulus
    [r2, r1]), which also describes the complement of the surjectivity
    region;
  * f(open disk r3) consists of eigenvalues (each witnessed by an explicit
    eigenvector), so it sits inside the point spectrum.

The module also hosts the finite-truncation sampling oracle for the
injectivity and surjectivity moduli, used to cross-validate the closed
forms used everywhere else.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .budget import Budget, Report
from .holo import (
    Annulus,
    CertifiedBound,
    HoloMap,
    Polynomial,
    Series,
    holo_from_dict,
    min_modulus_on_annulus,
)
from .weights import SpectralProfile, WeightSequence, spectral_profile, window_products

__all__ = [
    "OperatorSpec",
    "ImageRegion",
    "SpectralPicture",
    "KernelReport",
    "ModulusEstimate",
    "spectral_picture",
    "i_of_adjoint",
    "kernel_nontrivial",
    "brute_force_modulus",
    "compressed_forward_power_matrix",
    "induced_matrix_norm",
    "UnsupportedMapError",
]


class UnsupportedMapError(ValueError):
    """Operation requires a polynomial map but got a series."""


@dataclass(frozen=True)
class OperatorSpec(Report):
    """A weighted backward shift composed with a holomorphic map.

    The identity map gives the plain shift.  For series maps the validity
    disk must contain the closed disk of radius r1; that is checked at
    decision time, not here.
    """

    weights: WeightSequence
    map: HoloMap

    def profile(self) -> SpectralProfile:
        return spectral_profile(self.weights)

    def check_validity(self) -> SpectralProfile:
        prof = self.profile()
        if isinstance(self.map, Series) and self.map.validity_radius <= prof.r1:
            raise ValueError(
                f"series validity radius {self.map.validity_radius} does not "
                f"exceed the outer spectral radius {prof.r1}"
            )
        return prof

    @classmethod
    def from_dict(cls, d: dict) -> "OperatorSpec":
        return cls(WeightSequence.from_dict(d["weights"]), holo_from_dict(d["map"]))


@dataclass(frozen=True)
class ImageRegion:
    """Image of a centered disk or annulus under a holomorphic map."""

    map: HoloMap
    base_kind: str  # "disk" | "annulus"
    inner: float
    outer: float
    closed: bool

    def base_contains(self, z: complex) -> bool:
        r = abs(z)
        if self.closed:
            return self.inner <= r <= self.outer
        return self.inner <= r < self.outer

    def base_samples(self, n: int, seed: int = 0) -> np.ndarray:
        """n points of the base region (area-uniform, deterministic)."""
        rng = np.random.default_rng(seed)
        lo, hi = self.inner**2, self.outer**2
        shrink = 1.0 if self.closed else 1.0 - 1e-9
        radii = np.sqrt(rng.uniform(lo, hi * shrink**2, n))
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        return radii * np.exp(1j * angles)

    def to_dict(self) -> dict:
        return {
            "base": {
                "kind": self.base_kind,
                "inner": self.inner,
                "outer": self.outer,
                "closed": self.closed,
            },
            "map": self.map.to_dict(),
        }


@dataclass(frozen=True)
class SpectralPicture:
    """The spectral regions of f(B_w) and the weight radii they come from."""
    full_spectrum: ImageRegion
    approx_point_adjoint: ImageRegion
    point_inner_disk: ImageRegion
    surjectivity_complement: ImageRegion
    profile: SpectralProfile

    def to_dict(self) -> dict:
        return {
            "profile": self.profile.to_dict(),
            "fullSpectrum": self.full_spectrum.to_dict(),
            "approxPointSpectrumOfAdjointSide": self.approx_point_adjoint.to_dict(),
            "pointSpectrumInnerDisk": self.point_inner_disk.to_dict(),
            "surjectivityRegionComplement": self.surjectivity_complement.to_dict(),
        }


def spectral_picture(op: OperatorSpec) -> SpectralPicture:
    prof = op.check_validity()
    annulus = ImageRegion(op.map, "annulus", prof.r2, prof.r1, True)
    return SpectralPicture(
        full_spectrum=ImageRegion(op.map, "disk", 0.0, prof.r1, True),
        approx_point_adjoint=annulus,
        point_inner_disk=ImageRegion(op.map, "disk", 0.0, prof.r3, False),
        surjectivity_complement=annulus,
        profile=prof,
    )


def i_of_adjoint(op: OperatorSpec, budget: Budget | None = None) -> CertifiedBound:
    """Certified lower bound for the asymptotic injectivity modulus of the
    adjoint side: min |f| over the annulus [r2, r1].

    Exact (width 0) for the identity map and monomials; otherwise a certified
    bound from the two boundary circles (``holo.min_modulus_on_annulus``).
    """
    prof = op.check_validity()
    return min_modulus_on_annulus(op.map, Annulus(prof.r2, prof.r1), budget)


KERNEL_TRUE = "TRUE"
KERNEL_FALSE = "FALSE"
KERNEL_INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class KernelReport:
    """Three-valued answer to whether 0 is an eigenvalue of the image operator.

    The factors B_w - z of f(B_w) commute, so ker f(B_w) != {0} exactly
    when some root z of f is an eigenvalue of B_w.  TRUE comes with a root
    inside the open disk of radius r3, all of whose points are eigenvalues,
    and the recipe for the corresponding eigenvector.  FALSE is certified:
    every root lies strictly outside the closed disk of radius r1, so no
    root is even in the spectrum of B_w.  INCONCLUSIVE only means that this
    is unsettled for a root with r3 <= |z| <= r1 (up to the margin).
    """

    status: str
    root: complex | None = None
    eigenvector: dict | None = None
    note: str = ""

    def to_dict(self) -> dict:
        d = {"status": self.status, "note": self.note}
        if self.root is not None:
            d["root"] = [self.root.real, self.root.imag]
        if self.eigenvector is not None:
            d["eigenvector"] = self.eigenvector
        return d


def kernel_nontrivial(op: OperatorSpec) -> KernelReport:
    if not isinstance(op.map, Polynomial):
        raise UnsupportedMapError("kernel check needs polynomial roots")
    prof = op.profile()
    f = op.map
    if f.degree == 0:
        if f.coeffs[0] == 0:
            return KernelReport(
                KERNEL_TRUE, 0j, {"kind": "basis", "index": 1}, "zero map"
            )
        return KernelReport(KERNEL_FALSE, note="nonzero constant map")
    roots = f.roots()
    margin = 1e-8 * max(1.0, prof.r1)
    inner = [z for z in roots if abs(z) < prof.r3 - margin]
    if inner:
        z = min(inner, key=abs)
        if z == 0:  # an exact zero root (roots() lists it as 0j): B_w e_1 = 0
            recipe = {"kind": "basis", "index": 1}
        else:
            recipe = {"kind": "eigenvector", "lambda": [z.real, z.imag]}
        return KernelReport(KERNEL_TRUE, z, recipe, "root inside eigenvalue disk")
    if all(abs(z) > prof.r1 + margin for z in roots):
        return KernelReport(
            KERNEL_FALSE, note="all roots outside the closed spectral disk"
        )
    z = min(roots, key=lambda t: abs(t))
    return KernelReport(
        KERNEL_INCONCLUSIVE,
        z,
        None,
        "root between eigenvalue disk and outer radius; inclusion is one-sided",
    )


# -- finite truncation oracles ---------------------------------------------


def compressed_forward_power_matrix(w: WeightSequence, n: int, power: int) -> np.ndarray:
    """n x n compression of the forward shift power: e_k carries the window
    product w_k ... w_{k+power-1}, with the codomain reindexed so that no
    coordinate overflows the truncation (the zero overflow rows are dropped).
    """
    return np.diag(window_products(w, power, n).astype(complex))


def _vec_norm(x: np.ndarray, norm: str, axis=0) -> np.ndarray:
    if norm == "one":
        return np.sum(np.abs(x), axis=axis)
    if norm == "sup":
        return np.max(np.abs(x), axis=axis)
    raise ValueError(f"unknown norm {norm!r}")


def induced_matrix_norm(a: np.ndarray, norm: str) -> float:
    """Exact induced norm: max column sum (one) or max row sum (sup)."""
    if norm == "one":
        return float(np.max(np.sum(np.abs(a), axis=0)))
    if norm == "sup":
        return float(np.max(np.sum(np.abs(a), axis=1)))
    raise ValueError(f"unknown norm {norm!r}")


_DUAL = {"one": "sup", "sup": "one"}


def _unit_sphere_batch(dim: int, norm: str, count: int, rng) -> np.ndarray:
    phases = np.exp(2j * math.pi * rng.uniform(0.0, 1.0, (count, dim)))
    if norm == "one":
        mags = rng.dirichlet(np.ones(dim), size=count)
        return mags * phases
    mags = rng.uniform(0.0, 1.0, (count, dim))
    corner = rng.uniform(0.0, 1.0, count) < 0.25
    mags[corner] = 1.0
    mags /= mags.max(axis=1, keepdims=True)
    return mags * phases


def _renormalize(x: np.ndarray, norm: str) -> np.ndarray:
    nrm = float(_vec_norm(x, norm))
    if nrm == 0.0:
        raise ZeroDivisionError
    return x / nrm


def _kappa_estimate(a: np.ndarray, norm: str, samples: int, rng) -> tuple[float, np.ndarray]:
    """min ||Ax|| over sampled unit-norm x, plus local descent polish.

    Always an upper bound on the true injectivity modulus.
    """
    dim = a.shape[0]
    cands = [np.eye(dim, dtype=complex)[k] for k in range(dim)]
    batch = _unit_sphere_batch(dim, norm, samples, rng)
    vals = _vec_norm(a @ batch.T, norm, axis=0)
    order = np.argsort(vals)[: min(16, samples)]
    cands.extend(batch[i] for i in order)
    scored = sorted(
        ((float(_vec_norm(a @ x, norm)), k) for k, x in enumerate(cands)),
        key=lambda t: t[0],
    )

    best_val, best_x = scored[0][0], cands[scored[0][1]]
    for start_val, k in scored[:6]:
        x, val = cands[k].copy(), start_val
        sigma, stall = 0.3, 0
        for _ in range(700):
            if rng.uniform() < 0.5:
                step = sigma * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
            else:
                step = np.zeros(dim, dtype=complex)
                j = int(rng.integers(dim))
                step[j] = sigma * (rng.standard_normal() + 1j * rng.standard_normal())
            try:
                y = _renormalize(x + step, norm)
            except ZeroDivisionError:
                continue
            v = float(_vec_norm(a @ y, norm))
            if v < val:
                x, val, stall = y, v, 0
            else:
                stall += 1
                if stall >= 16:
                    sigma *= 0.6
                    stall = 0
                    if sigma < 1e-10:
                        break
        if val < best_val:
            best_val, best_x = val, x
    return best_val, best_x


@dataclass(frozen=True)
class ModulusEstimate(Report):
    """Sampled estimates of the injectivity modulus kappa and the
    surjectivity modulus s (via kappa of the adjoint in the dual norm).
    Both are upper bounds on the true values."""

    kappa: float
    s: float
    kappa_witness: np.ndarray = field(repr=False)
    degenerate: bool


def brute_force_modulus(
    matrix: np.ndarray,
    norm: str = "one",
    samples: int = 10_000,
    seed: int = 0,
) -> ModulusEstimate:
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if a.shape[0] > 12:
        raise ValueError("brute-force modulus oracle is limited to dimension 12")
    if samples < 10_000:
        raise ValueError("need at least 10^4 samples for a meaningful estimate")
    if norm not in _DUAL:
        raise ValueError(f"unknown norm {norm!r}")
    rng = np.random.default_rng(seed)
    kappa, witness = _kappa_estimate(a, norm, samples, rng)
    rng_s = np.random.default_rng(seed + 1)
    s, _ = _kappa_estimate(a.conj().T, _DUAL[norm], samples, rng_s)
    scale = induced_matrix_norm(a, norm)
    return ModulusEstimate(
        kappa=kappa,
        s=s,
        kappa_witness=witness,
        degenerate=bool(kappa <= 1e-12 * max(scale, 1.0)),
    )
