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
    brute_force_modulus,
    compressed_forward_power_matrix,
    i_of_adjoint,
    induced_matrix_norm,
    kernel_nontrivial,
    spectral_picture,
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
    # base inclusion plus image sampling: every inner-disk image point is
    # the image of a point of the full-spectrum base region
    op = OperatorSpec(random_weights(rng), P(0.3, 1, 0.2))
    pic = spectral_picture(op)
    assert pic.point_inner_disk.outer <= pic.full_spectrum.outer + 1e-12
    for z in pic.point_inner_disk.base_samples(100, seed=3):
        assert pic.full_spectrum.base_contains(complex(z))


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


# -- brute-force modulus oracle -------------------------------------------


def test_truncation_boundary_subtlety():
    # the naive 4x4 truncation sends the last basis vector to zero, so its
    # injectivity modulus collapses; the compression restores the true value
    w = WeightSequence.constant(2.0)
    naive = brute_force_modulus(forward_shift_matrix(w, 4), "one", 10_000, seed=1)
    assert naive.kappa <= 1e-9
    assert naive.degenerate
    comp = brute_force_modulus(
        compressed_forward_power_matrix(w, 4, 1), "one", 10_000, seed=1
    )
    assert comp.kappa == pytest.approx(2.0, rel=1e-6)


def test_identity_matrix_moduli():
    est = brute_force_modulus(np.eye(3, dtype=complex), "sup", 10_000, seed=2)
    assert est.kappa == pytest.approx(1.0, rel=1e-6)
    assert est.s == pytest.approx(1.0, rel=1e-6)


def test_diag_one_norm():
    est = brute_force_modulus(np.diag([1.0, 2.0, 3.0]).astype(complex), "one", 10_000, seed=3)
    assert est.kappa == pytest.approx(1.0, rel=0.05)
    assert est.s == pytest.approx(1.0, rel=0.05)


def test_estimates_are_upper_bounds():
    # true kappa of a diagonal is the smallest entry in both norms
    d = np.diag([0.5, 1.5, 2.5]).astype(complex)
    for norm in ("one", "sup"):
        est = brute_force_modulus(d, norm, 10_000, seed=4)
        assert est.kappa >= 0.5 - 1e-12
        assert est.kappa == pytest.approx(0.5, rel=0.05)


def test_duality_against_inverse_norm(rng):
    # for invertible T the surjectivity modulus is 1 / ||T^-1||, an
    # independent exact oracle for the adjoint-in-dual-norm estimate
    for norm in ("one", "sup"):
        for k in range(3):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 5 * np.eye(4)
            est = brute_force_modulus(a, norm, 20_000, seed=10 + k)
            s_true = 1.0 / induced_matrix_norm(np.linalg.inv(a), norm)
            assert est.s >= s_true - 1e-9
            assert est.s == pytest.approx(s_true, rel=0.05)


def test_seed_reproducibility():
    a = np.diag([1.0, 2.0]).astype(complex)
    e1 = brute_force_modulus(a, "one", 10_000, seed=7)
    e2 = brute_force_modulus(a, "one", 10_000, seed=7)
    assert e1.kappa == e2.kappa and e1.s == e2.s


def test_dimension_and_sample_guards():
    with pytest.raises(ValueError):
        brute_force_modulus(np.eye(13, dtype=complex), "one", 10_000)
    with pytest.raises(ValueError):
        brute_force_modulus(np.eye(3, dtype=complex), "one", 100)
    with pytest.raises(ValueError):
        brute_force_modulus(np.eye(3, dtype=complex), "two", 10_000)


def test_compressed_truncation_matches_kappa(rng):
    # quick version of the acceptance sweep: compression at N=8 recovers the
    # closed-form infimum for structured weights
    for _ in range(5):
        w = WeightSequence.periodic(rng.uniform(0.6, 3.0, int(rng.integers(1, 4))))
        n = int(rng.integers(1, 4))
        est = brute_force_modulus(
            compressed_forward_power_matrix(w, 8, n), "one", 10_000, seed=11
        )
        assert est.kappa == pytest.approx(kappa_forward_power(w, n), rel=0.05)
