"""The benchmark's tracer (perfbench/tracing.py) wraps program names given
as strings; these checks fail as soon as a rename or deletion would break a
traced benchmark run.  The lazy package's contract is checked here too, since
the tracer and the CLI start-up timing both rely on it."""
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import shiftspec

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("layer", tracing.LAYERS)
def test_layer_exports_resolve(layer):
    mod = importlib.import_module(f"shiftspec.{layer}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("layer, cls_name, meth", tracing.METHODS)
def test_traced_methods_are_defined_on_their_class(layer, cls_name, meth):
    cls = getattr(importlib.import_module(f"shiftspec.{layer}"), cls_name)
    assert callable(cls.__dict__.get(meth))


# every name a per-layer metric reads spans of
_METRIC_NAMES = sorted({*tracing.ARG_OF, *tracing.RESULT_OF, *tracing.PROFILE_REQUESTS,
                        *tracing.EVALS, *tracing.SOLVES})


@pytest.mark.parametrize("name", _METRIC_NAMES)
def test_metric_names_are_traced(name):
    # a name the tracer never wraps records no span, and its metric reads 0
    layer, *path = name.split(".")
    assert layer in tracing.LAYERS
    mod = importlib.import_module(f"shiftspec.{layer}")
    obj = mod
    for part in path:
        obj = getattr(obj, part)
    assert callable(obj)
    if len(path) == 1:
        assert inspect.isfunction(obj) and path[0] in mod.__all__
    else:
        assert (layer, *path) in tracing.METHODS


def test_tracer_sees_every_scalar_eval_of_roots(monkeypatch):
    # holo.eval_calls counts spans of Polynomial.eval; a root polish that
    # evaluated without going through it would drop its evaluations silently
    from shiftspec import holo

    scalar_evals = []
    plain = holo._horner_scalar

    def counting(coeffs, z):
        scalar_evals.append(z)
        return plain(coeffs, z)

    monkeypatch.setattr(holo, "_horner_scalar", counting)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # each seed path: a zero root stripped before a degree-1 seed, the
        # quadratic formula (also at 1e160, past the range of raw squares),
        # companion eigenvalues for cubics, and a quartic whose root near
        # 691 takes Newton steps
        for coeffs in ((2, -3, 1), (1, 0, 0, 1j), (0.25, -1, 1), (0, -2, 1),
                       (1e160, 0, 1e160), (1, 2, 3, 4),
                       (0.8938622079538034 - 0.351737360012764j,
                        -0.1613106291217945 + 0.7145541223598708j,
                        -0.06477370334527777 + 1.7295332262086887j,
                        -1.250702409194358 - 1.4460676452117127j,
                        0.002604151556353518 + 0.0009211163378552989j)):
            holo.Polynomial(coeffs).roots()
    finally:
        tracer.uninstall()
    assert tracer.summarize()["holo.eval_calls"] == len(scalar_evals) > 0


def test_traced_cross_check_records_one_geometric_decision():
    # cross_check runs its geometric route through the public
    # decide_geometric, so a traced run sees that span under cross_check's
    # and jclass.decide_calls counts it once; the moduli route stays private
    from shiftspec import holo, jclass, spectra, weights

    op = spectra.OperatorSpec(weights.WeightSequence.constant(2.0), holo.Polynomial((1, 0, 1)))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = jclass.cross_check(op)
    finally:
        tracer.uninstall()
    assert report.consistent and report.geometric.decision == jclass.JCLASS
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name"]]
    assert names.count("jclass.decide_geometric") == 1
    assert names.count("jclass.cross_check") == 1
    assert spans["parent"][names.index("jclass.decide_geometric")] == names.index("jclass.cross_check")
    assert tracer.summarize()["jclass.decide_calls"] == 1


@pytest.mark.parametrize("coeffs, spans", [
    ((4.5, -9.5, 1), {"solve_factor_outer": 1, "solve_factor_inner": 1, "preimage_power": 0}),
    ((0, 0.1, 1), {"solve_factor_outer": 0, "solve_factor_inner": 1, "preimage_power": 1}),
], ids=["inner_outer", "zero_inner"])
def test_traced_solve_poly_records_one_span_per_factor(coeffs, spans):
    # each root is solved through one public factor solver, nested under
    # solve_poly, so dynamics.solve_ms.* and dynamics.inner_steps count
    # every factor solve once
    from shiftspec import dynamics, holo, spectra, weights

    op = spectra.OperatorSpec(weights.WeightSequence.constant(2.0), holo.Polynomial(coeffs))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        dynamics.solve_poly(op, dynamics.TruncatedVector.ones(256))
    finally:
        tracer.uninstall()
    arrays = tracer.arrays()
    names = [tracer.names[i] for i in arrays["name"]]
    top = names.index("dynamics.solve_poly")
    for name, count in spans.items():
        assert names.count(f"dynamics.{name}") == count
        assert all(arrays["parent"][i] == top for i, nm in enumerate(names) if nm == f"dynamics.{name}")
    assert tracer.summarize()["dynamics.inner_steps"] == 255


# -- the lazy package -----------------------------------------------------------

# what `from shiftspec import *` gives: the same names with the lazy package as when
# __init__ imported every layer
_STAR_NAMES = {
    "Annulus", "Budget", "CertifiedBound", "ConstantTail", "JCLASS", "MixingWitness",
    "NOT_JCLASS", "OperatorSpec", "PeriodicTail", "Polynomial", "Series", "SpectralPicture",
    "SpectralProfile", "TruncatedVector", "TwoValueDoublingBlocks", "VERDICT_UNDECIDED",
    "Verdict", "WeightSequence", "apply_operator", "budget", "covers_closed_unit_disk",
    "cross_check", "decide", "decide_geometric", "decide_moduli", "decide_unweighted",
    "dynamics", "eigenvector", "holo", "i_of_adjoint", "identity_map", "jclass",
    "jset_experiment", "kappa_forward_power", "kernel_nontrivial", "min_modulus_on_annulus",
    "mixing_witness", "preimage_power", "solve_poly", "span_approximate", "spectra",
    "spectral_picture", "spectral_profile", "stability_radius",
    "truncation_modulus", "weights", "winding_number", "window_product",
}


def test_import_shiftspec_loads_no_layer():
    probe = """
import json, sys
import shiftspec
before = sorted(m for m in sys.modules if m.startswith("shiftspec."))
holo = shiftspec.holo
print(json.dumps({"before": before, "holo": holo.__name__,
                  "after": sorted(m for m in sys.modules if m.startswith("shiftspec."))}))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    out = json.loads(proc.stdout)
    assert out["before"] == []
    assert out["holo"] == "shiftspec.holo"
    assert "shiftspec.holo" in out["after"] and "shiftspec.dynamics" not in out["after"]


def test_lazy_names_are_the_layer_objects():
    assert set(shiftspec.__all__) == _STAR_NAMES and len(shiftspec.__all__) == len(_STAR_NAMES)
    for module, names in shiftspec._EXPORTS.items():
        layer = importlib.import_module(f"shiftspec.{module}")
        assert getattr(shiftspec, module) is layer
        for name in names:
            assert getattr(shiftspec, name) is getattr(layer, name), name
    namespace = {}
    exec("from shiftspec import *", namespace)
    assert set(namespace) - {"__builtins__"} == _STAR_NAMES


def test_lazy_package_dir_errors_and_version():
    listed = dir(shiftspec)
    assert "__all__" in listed and set(shiftspec.__all__) <= set(listed)
    with pytest.raises(AttributeError, match="no_such_layer"):
        shiftspec.no_such_layer
    assert shiftspec.__version__ == "0.1.0"


# -- determinism ----------------------------------------------------------------


def test_no_random_number_generator_in_src():
    # every answer the package gives is a function of its input; the Monte
    # Carlo stability oracle lives in tests/conftest.py
    src = Path(__file__).resolve().parents[1] / "src" / "shiftspec"
    pattern = re.compile(r"np\.random|default_rng|^import random", re.MULTILINE)
    files = sorted(src.glob("*.py"))
    assert files
    assert [p.name for p in files if pattern.search(p.read_text(encoding="utf-8"))] == []
