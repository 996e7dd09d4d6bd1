"""Certified J-class decisions and constructive dynamics for holomorphic
images of weighted backward shifts on the space of bounded sequences."""

from .budget import Budget
from .weights import (
    ConstantTail,
    PeriodicTail,
    TwoValueDoublingBlocks,
    WeightSequence,
    SpectralProfile,
    window_product,
    spectral_profile,
    kappa_forward_power,
)
from .holo import (
    Annulus,
    CertifiedBound,
    Polynomial,
    Series,
    identity_map,
    min_modulus_on_annulus,
    winding_number,
    covers_closed_unit_disk,
)
from .spectra import (
    OperatorSpec,
    SpectralPicture,
    spectral_picture,
    i_of_adjoint,
    kernel_nontrivial,
    brute_force_modulus,
)
from .jclass import (
    JCLASS,
    NOT_JCLASS,
    VERDICT_UNDECIDED,
    Verdict,
    decide,
    decide_geometric,
    decide_moduli,
    decide_unweighted,
    cross_check,
    perturbation_stability,
)
from .dynamics import (
    TruncatedVector,
    MixingWitness,
    apply_operator,
    preimage_power,
    solve_poly,
    mixing_witness,
    eigenvector,
    span_approximate,
    jset_experiment,
)

__version__ = "0.1.0"
