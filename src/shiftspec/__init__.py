"""Certified J-class decisions and constructive dynamics for holomorphic
images of weighted backward shifts on the space of bounded sequences.

Lazy (PEP 562): ``import shiftspec`` loads no layer; each name imports its
layer on first use, so a CLI subcommand compiles only the layers it runs."""

import importlib

# each layer module and the names the package re-exports from it
_EXPORTS = {
    "budget": ("Budget",),
    "weights": ("ConstantTail", "PeriodicTail", "TwoValueDoublingBlocks", "WeightSequence",
                "SpectralProfile", "window_product", "spectral_profile", "kappa_forward_power"),
    "holo": ("Annulus", "CertifiedBound", "Polynomial", "Series", "identity_map",
             "min_modulus_on_annulus", "winding_number", "covers_closed_unit_disk"),
    "spectra": ("OperatorSpec", "SpectralPicture", "spectral_picture", "i_of_adjoint",
                "kernel_nontrivial", "truncation_modulus"),
    "jclass": ("JCLASS", "NOT_JCLASS", "VERDICT_UNDECIDED", "Verdict", "decide",
               "decide_geometric", "decide_moduli", "decide_unweighted", "cross_check",
               "stability_radius"),
    "dynamics": ("TruncatedVector", "MixingWitness", "apply_operator", "preimage_power",
                 "solve_poly", "mixing_witness", "eigenvector", "span_approximate",
                 "jset_experiment"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
