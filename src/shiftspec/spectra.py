"""Spectral pictures of weighted shifts and their holomorphic images.

Spectra in scope are never enumerated pointwise: each one is the image of a
centered disk or annulus under the map, so a region is stored as its base
(radii and closedness) and the map.  For the weight sequence w with radii
(r1, r2, r3):

  * the full spectrum of the image operator is f(closed disk r1);
  * the approximate point spectrum on the adjoint side is f(annulus
    [r2, r1]), which also describes the complement of the surjectivity
    region;
  * f(open disk r3) consists of eigenvalues (each witnessed by an explicit
    eigenvector), so it sits inside the point spectrum.

The module also gives the exact injectivity and surjectivity moduli of
finite truncations (``truncation_modulus``), which cross-check the closed
forms used everywhere else.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import Budget, Report
from .holo import (
    Annulus,
    CertifiedBound,
    HoloMap,
    Polynomial,
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
    "truncation_modulus",
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
        if self.map.validity_radius <= prof.r1:
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

    Exact (width 0) for the identity map and monomials, in closed form less
    a rounding allowance for affine maps a0 + a1 z; otherwise a certified
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
    when some root z of f is an eigenvalue of B_w.  Roots are read from the
    map's root placement (``Polynomial.placement``).  TRUE comes with a
    root whose disk lies inside the open disk of radius r3, all of whose
    points are eigenvalues, and the recipe for the corresponding
    eigenvector.  FALSE is certified: the placement is complete and every
    disk lies strictly outside the closed disk of radius r1, so no root is
    even in the spectrum of B_w.  INCONCLUSIVE means that neither holds: a
    disk meets the circles r3 or r1 or lies between them, or overlapping
    disks leave a root unplaced.
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
    place = f.placement
    inner = place.within(prof.r3)
    if inner:
        z = min(inner, key=abs)
        if z == 0:  # an exact zero root (roots() lists it as 0j): B_w e_1 = 0
            recipe = {"kind": "basis", "index": 1}
        else:
            recipe = {"kind": "eigenvector", "lambda": [z.real, z.imag]}
        return KernelReport(KERNEL_TRUE, z, recipe, "root inside eigenvalue disk")
    if place.complete and len(place.beyond(prof.r1)) == len(place.roots):
        return KernelReport(
            KERNEL_FALSE, note="all roots outside the closed spectral disk"
        )
    z = min(place.roots, key=abs)
    return KernelReport(
        KERNEL_INCONCLUSIVE,
        z,
        None,
        "root between eigenvalue disk and outer radius; inclusion is one-sided",
    )


# -- finite truncation moduli ----------------------------------------------


def compressed_forward_power_matrix(w: WeightSequence, n: int, power: int) -> np.ndarray:
    """n x n compression of the forward shift power: e_k carries the window
    product w_k ... w_{k+power-1}, with the codomain reindexed so that no
    coordinate overflows the truncation (the zero overflow rows are dropped).
    """
    return np.diag(window_products(w, power, n).astype(complex))


def induced_matrix_norm(a: np.ndarray, norm: str) -> float:
    """Exact induced norm: max column sum (one) or max row sum (sup)."""
    if norm == "one":
        return float(np.max(np.sum(np.abs(a), axis=0)))
    if norm == "sup":
        return float(np.max(np.sum(np.abs(a), axis=1)))
    raise ValueError(f"unknown norm {norm!r}")


_DUAL = {"one": "sup", "sup": "one"}


@dataclass(frozen=True)
class ModulusEstimate(Report):
    """The injectivity modulus kappa = min ||Ax|| over unit x and the
    surjectivity modulus s of a square truncation A, both exact up to
    rounding; ``degenerate`` marks a kappa that is zero at A's scale."""

    kappa: float
    s: float
    degenerate: bool


def truncation_modulus(matrix: np.ndarray, norm: str = "one") -> ModulusEstimate:
    """Both moduli of a square matrix in an induced norm.

    In finite dimensions kappa = 1/||A^-1||, and s is kappa of the adjoint in
    the dual norm (V. Muller, Spectral Theory of Linear Operators, 2007).  Each
    is computed from its own inverse, so agreement of the two checks the
    duality; a singular matrix has both moduli 0.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    scale = induced_matrix_norm(a, norm)
    try:
        kappa = 1.0 / induced_matrix_norm(np.linalg.inv(a), norm)
        s = 1.0 / induced_matrix_norm(np.linalg.inv(a.conj().T), _DUAL[norm])
    except np.linalg.LinAlgError:
        kappa = s = 0.0
    return ModulusEstimate(kappa, s, bool(kappa <= 1e-12 * max(scale, 1.0)))
