import math

import numpy as np
import pytest

from conftest import random_weights
from shiftspec.holo import Polynomial, Series, identity_map
from shiftspec.spectra import (
    KERNEL_FALSE,
    KERNEL_INCONCLUSIVE,
    KERNEL_TRUE,
    OperatorSpec,
    UnsupportedMapError,
    compressed_forward_power_matrix,
    i_of_adjoint,
    kernel_nontrivial,
    spectral_picture,
    truncation_modulus,
)
from shiftspec.weights import WeightSequence, kappa_forward_power


def P(*coeffs):
    return Polynomial(tuple(coeffs))


def const_op(c, f=None):
    return OperatorSpec(WeightSequence.constant(c), f or identity_map())


def forward_shift_matrix(w: WeightSequence, n: int) -> np.ndarray:
    """Naive n x n truncation of the weighted forward shift e_k -> w_k e_{k+1}.

    The last basis vector maps out of range, so the truncated injectivity
    modulus is spuriously 0; use the compressed power for modulus oracles.
    """
    return np.diag(w.values_array(n - 1).astype(complex), -1)


# -- spectral pictures ----------------------------------------------------


def test_picture_unweighted():
    pic = spectral_picture(const_op(1.0))
    assert pic.full_spectrum.outer == 1.0 and pic.full_spectrum.closed
    assert pic.approx_point_adjoint.inner == 1.0  # annulus collapses to circle
    assert pic.point_inner_disk.outer == 1.0 and not pic.point_inner_disk.closed


def test_picture_scaled():
    pic = spectral_picture(const_op(2.0))
    assert pic.full_spectrum.outer == 2.0
    assert pic.approx_point_adjoint.inner == 2.0
    assert pic.point_inner_disk.outer == 2.0


def test_picture_blocks_annulus():
    pic = spectral_picture(OperatorSpec(WeightSequence.doubling_blocks(2, 1), identity_map()))
    ann = pic.approx_point_adjoint
    assert (ann.inner, ann.outer) == (1.0, 2.0)
    assert pic.surjectivity_complement is ann


def test_picture_inner_disk_inside_full(rng):
    # both bases are centered disks from 0, so the inner one (open, radius
    # r3) lies in the full one (closed, radius r1) exactly when r3 <= r1
    op = OperatorSpec(random_weights(rng), P(0.3, 1, 0.2))
    pic = spectral_picture(op)
    assert pic.point_inner_disk.inner == pic.full_spectrum.inner == 0.0
    assert pic.point_inner_disk.outer <= pic.full_spectrum.outer + 1e-12


def test_picture_series_validity_checked():
    s = Series((0, 1), 0.5, 0.4, 1.5)
    with pytest.raises(ValueError):
        spectral_picture(OperatorSpec(WeightSequence.constant(2.0), s))


# -- adjoint modulus ------------------------------------------------------


def test_i_identity_exact():
    bound = i_of_adjoint(const_op(2.0))
    assert bound.lower_bound == 2.0
    assert bound.width == 0.0


def test_i_closed_form_one_plus_zm():
    # min over the circle |z| = c of |1 + z^m| is c^m - 1 for c > 1
    for c, m in [(2.0, 2), (1.7, 2), (1.5, 3)]:
        coeffs = [0.0] * (m + 1)
        coeffs[0] = 1.0
        coeffs[m] = 1.0
        bound = i_of_adjoint(const_op(c, P(*coeffs)))
        assert bound.lower_bound == pytest.approx(c**m - 1, abs=1e-3)


def test_i_unweighted_identity():
    assert i_of_adjoint(const_op(1.0)).lower_bound == 1.0


def test_i_identity_equals_r2_for_all_tails(rng):
    from shiftspec.weights import spectral_profile

    for _ in range(20):
        w = random_weights(rng)
        op = OperatorSpec(w, identity_map())
        assert i_of_adjoint(op).lower_bound == spectral_profile(w).r2


# -- kernel witness -------------------------------------------------------


def test_kernel_identity_map():
    rep = kernel_nontrivial(const_op(2.0))
    assert rep.status == KERNEL_TRUE
    assert rep.root == 0
    assert rep.eigenvector == {"kind": "basis", "index": 1}


def test_kernel_small_nonzero_root_gets_its_eigenvector():
    # the root -1e-9 of z + 1e-9 is no zero: f(B) e_1 = 1e-9 e_1, while the
    # eigenvector for lambda = -1e-9 is in the kernel
    from shiftspec.dynamics import TruncatedVector, apply_operator, eigenvector

    op = const_op(2.0, P(1e-9, 1))
    rep = kernel_nontrivial(op)
    assert rep.status == KERNEL_TRUE and rep.root == -1e-9
    assert rep.eigenvector == {"kind": "eigenvector", "lambda": [-1e-9, 0.0]}
    x = eigenvector(op.weights, complex(*rep.eigenvector["lambda"]), 64)
    assert apply_operator(op, x).sup_norm() <= 1e-24
    assert apply_operator(op, TruncatedVector.basis(64, 1)).sup_norm() == 1e-9


def test_kernel_root_outside():
    rep = kernel_nontrivial(const_op(2.0, P(3, 1)))
    assert rep.status == KERNEL_FALSE


def test_kernel_roots_inside():
    rep = kernel_nontrivial(const_op(2.0, P(1, 0, 1)))
    assert rep.status == KERNEL_TRUE
    assert abs(rep.root) == pytest.approx(1.0)
    assert rep.eigenvector["kind"] == "eigenvector"


def test_kernel_root_of_one_plus_z_squared_is_plus_i():
    # the roots +-i tie in modulus; the quadratic seeds list +i first, so the
    # kernel reports it, exactly and without a signed zero in the JSON
    rep = kernel_nontrivial(const_op(1.5, P(1, 0, 1)))
    assert rep.root == 1j
    assert [math.copysign(1.0, x) for x in rep.to_dict()["root"]] == [1.0, 1.0]


def test_kernel_gray_zone_inconclusive():
    w = WeightSequence.doubling_blocks(2.0, 1.0)  # r3 ~ 1.26, r1 = 2
    rep = kernel_nontrivial(OperatorSpec(w, P(-1.5, 1)))
    assert rep.status == KERNEL_INCONCLUSIVE


def test_kernel_constant_maps():
    assert kernel_nontrivial(const_op(2.0, P(5))).status == KERNEL_FALSE
    assert kernel_nontrivial(const_op(2.0, P(0))).status == KERNEL_TRUE


def test_kernel_series_unsupported():
    s = Series((0, 1), 0.1, 0.3, 3.0)
    with pytest.raises(UnsupportedMapError):
        kernel_nontrivial(OperatorSpec(WeightSequence.constant(2.0), s))


def _near_circle_power(d, a):
    # (z - a)^d by the binomial theorem
    return P(*(math.comb(d, k) * (-a) ** (d - k) for k in range(d + 1)))


def test_kernel_claims_are_supported_by_the_root_disks():
    # a root of multiplicity d within 2e-3 of the circle |z| = 2 = r1 = r3: a
    # TRUE needs a disk inside the open disk r3, a FALSE every disk outside r1
    w = WeightSequence.constant(2.0)
    r1 = r3 = 2.0
    unsupported = []
    for d in (2, 3, 4):
        for a in 2 * (1 + np.outer((1, -1), np.logspace(-9, -3, 61)).ravel()):
            op = OperatorSpec(w, _near_circle_power(d, a))
            rep = kernel_nontrivial(op)
            roots, radii = op.map.roots(radii=True)
            if rep.status == KERNEL_TRUE:
                held = any(abs(z) + rho < r3 for z, rho in zip(roots, radii))
            else:
                held = rep.status == KERNEL_INCONCLUSIVE or all(
                    abs(z) - rho > r1 for z, rho in zip(roots, radii))
            if not held:
                unsupported.append((d, float(a), rep.status))
    assert unsupported == []


def test_kernel_false_needs_a_complete_placement():
    # roots 3 and 3.5 past r1 = 2 in disjoint disks: FALSE.  The double root
    # of (z - 3)^2 polishes two seeds into overlapping disks, which cannot
    # tell a double root from two seeds on one root beside an unplaced one:
    # INCONCLUSIVE.  A disk inside r3 is TRUE either way
    w = WeightSequence.constant(2.0)
    assert kernel_nontrivial(OperatorSpec(w, P(10.5, -6.5, 1))).status == KERNEL_FALSE
    rep = kernel_nontrivial(OperatorSpec(w, P(9, -6, 1)))
    assert rep.status == KERNEL_INCONCLUSIVE and rep.root == 3
    assert kernel_nontrivial(OperatorSpec(w, P(0.25, -1, 1))).status == KERNEL_TRUE


# -- exact truncation moduli ---------------------------------------------


def test_truncation_boundary_subtlety():
    # the naive 4x4 truncation sends the last basis vector to zero, so its
    # injectivity modulus collapses; the compression restores the true value
    w = WeightSequence.constant(2.0)
    naive = truncation_modulus(forward_shift_matrix(w, 4), "one")
    assert naive.kappa == 0.0 and naive.s == 0.0
    assert naive.degenerate
    comp = truncation_modulus(compressed_forward_power_matrix(w, 4, 1), "one")
    assert comp.kappa == comp.s == 2.0
    assert not comp.degenerate


def test_identity_matrix_moduli():
    est = truncation_modulus(np.eye(3, dtype=complex), "sup")
    assert est.kappa == est.s == 1.0


def test_diag_one_norm():
    est = truncation_modulus(np.diag([1.0, 2.0, 3.0]).astype(complex), "one")
    assert est.kappa == est.s == 1.0


def test_estimates_are_upper_bounds():
    # kappa of a diagonal is its smallest entry in modulus, in both norms
    d = np.diag([0.5, -1.5j, 2.5]).astype(complex)
    for norm in ("one", "sup"):
        est = truncation_modulus(d, norm)
        assert est.kappa == est.s == 0.5


def test_duality_against_inverse_norm(rng):
    # kappa = min ||Ax|| / ||x||, so every sampled ratio bounds it from above;
    # s comes from the adjoint's own inverse in the dual norm and must agree
    for norm in ("one", "sup"):
        for _ in range(3):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 5 * np.eye(4)
            est = truncation_modulus(a, norm)
            x = rng.normal(size=(4, 1000)) + 1j * rng.normal(size=(4, 1000))
            if norm == "one":
                ratios = np.abs(a @ x).sum(axis=0) / np.abs(x).sum(axis=0)
            else:
                ratios = np.abs(a @ x).max(axis=0) / np.abs(x).max(axis=0)
            assert est.kappa <= ratios.min()
            assert est.s == pytest.approx(est.kappa, rel=1e-12)
            assert not est.degenerate


def test_input_guards():
    with pytest.raises(ValueError, match="square"):
        truncation_modulus(np.ones((3, 2), dtype=complex), "one")
    with pytest.raises(ValueError, match="unknown norm"):
        truncation_modulus(np.eye(3, dtype=complex), "two")


def test_compressed_truncation_matches_kappa(rng):
    # quick version of the acceptance sweep: compression at N=8 recovers the
    # closed-form infimum for structured weights
    for _ in range(5):
        w = WeightSequence.periodic(rng.uniform(0.6, 3.0, int(rng.integers(1, 4))))
        n = int(rng.integers(1, 4))
        est = truncation_modulus(compressed_forward_power_matrix(w, 8, n), "one")
        assert est.kappa == pytest.approx(kappa_forward_power(w, n), rel=1e-12)
