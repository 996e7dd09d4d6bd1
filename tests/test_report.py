"""The JSON form derived from report fields: keys, values and round trips."""
import json
from dataclasses import dataclass, field

import numpy as np
import pytest

from shiftspec.budget import Budget, Report, _json_value
from shiftspec.dynamics import (
    GrowthDiagnostic,
    JSetReport,
    MembershipCertificate,
    SpanFit,
    TruncatedVector,
    mixing_witness,
)
from shiftspec.holo import Annulus, Polynomial, Series, identity_map, winding_number
from shiftspec.jclass import cross_check, decide_geometric
from shiftspec.spectra import ModulusEstimate, OperatorSpec, i_of_adjoint
from shiftspec.weights import WeightSequence

OP = OperatorSpec(WeightSequence.constant(1.5), Polynomial((1, 0, 1)))


def _reports():
    verdict = decide_geometric(OP)
    return {
        "Budget": Budget(),
        "OperatorSpec": OP,
        "CertifiedBound": i_of_adjoint(OP),
        "WindingResult": winding_number(OP.map, 1.0, 0j),
        "CoverageResult": verdict.condition_b,
        "Annulus": Annulus(1.0, 2.0),
        "Verdict": verdict,
        "ConsistencyReport": cross_check(OP),
        "ModulusEstimate": ModulusEstimate(1.0, 2.0, False),
        "TruncatedVector": TruncatedVector.ones(4),
        "SpanFit": SpanFit(np.array([1 + 2j]), 0.5, 0.25, 3.0),
        "GrowthDiagnostic": GrowthDiagnostic(2.0, 1.5, 20),
        "JSetReport": JSetReport("membership", (MembershipCertificate(0, "MEMBER", ((1, 0.5, 0.25),), 0.25),),
                                 None, "MEMBER"),
        "MixingWitness": mixing_witness(OP, TruncatedVector.ones(64), 2, verdict=verdict),
    }


# the keys each class wrote when its to_dict was written by hand
KEYS = {
    "Budget": {"gridMax", "windingMax", "truncationN", "tol"},
    "OperatorSpec": {"weights", "map"},
    "CertifiedBound": {"lowerBound", "witnessPoint", "gridStep", "lipschitzBound", "status",
                       "minSampled", "threshold"},
    "WindingResult": {"winding", "valid", "samples", "minDistance"},
    "CoverageResult": {"covers", "status", "winding"},
    "Annulus": {"inner", "outer"},
    "Verdict": {"decision", "route", "margin", "profile", "conditionA", "conditionB", "kernel",
                "notes"},
    "ConsistencyReport": {"consistent", "detail", "geometric", "moduli"},
    "ModulusEstimate": {"kappa", "s", "degenerate"},
    "TruncatedVector": {"coords", "exactPrefix"},
    "SpanFit": {"coefficients", "residualSup", "residualL2", "condition"},
    "GrowthDiagnostic": {"measuredRate", "certifiedRate", "steps"},
    "JSetReport": {"mode", "memberships", "growth", "status"},
    "MixingWitness": {"n0", "epsilon", "constant", "targetNorm", "stages", "ok", "failure",
                      "pushforwardIdentity"},
}


@pytest.fixture(scope="module")
def reports():
    return _reports()


@pytest.mark.parametrize("name", sorted(KEYS))
def test_derived_keys_match_the_hand_written_ones(reports, name):
    report = reports[name]
    assert type(report).__name__ == name and isinstance(report, Report)
    d = report.to_dict()
    assert set(d) == KEYS[name]
    # strict JSON, and each nested value is already in its JSON form
    assert json.loads(json.dumps(d, allow_nan=False)) == d


def test_nested_values_take_their_own_json_form(reports):
    v = reports["Verdict"].to_dict()
    verdict = reports["Verdict"]
    assert v["profile"] == verdict.profile.to_dict()
    assert v["conditionA"] == verdict.condition_a.to_dict()
    assert v["conditionB"]["winding"] == verdict.condition_b.winding.to_dict()
    assert v["kernel"] is None and v["notes"] == verdict.notes
    w = reports["MixingWitness"].to_dict()
    assert w["stages"] == [s.to_dict() for s in reports["MixingWitness"].stages]
    assert set(w["stages"][0]) == {"m", "norm", "normBound", "roundTripResidual"}
    j = reports["JSetReport"].to_dict()
    assert j["growth"] is None
    assert j["memberships"] == [{"target": 0, "status": "MEMBER", "finalError": 0.25,
                                 "stages": [{"m": 1, "approxDistance": 0.5, "orbitError": 0.25}]}]


def test_complex_values_are_re_im_pairs(reports):
    cert = reports["CertifiedBound"]
    assert cert.to_dict()["witnessPoint"] == [cert.witness_point.real, cert.witness_point.imag]
    assert reports["SpanFit"].to_dict()["coefficients"] == [[1.0, 2.0]]
    assert reports["TruncatedVector"].to_dict() == {"coords": [[1.0, 0.0]] * 4, "exactPrefix": 4}


def test_json_value_converts_each_kind():
    arr = np.array([1 + 2j, -0.5j], dtype=np.complex128)
    out = _json_value(arr)
    assert out == [[1.0, 2.0], [0.0, -0.5]]
    assert all(type(x) is float for pair in out for x in pair)
    assert _json_value(np.complex64(3 - 1j)) == [3.0, -1.0]
    assert _json_value(2j) == [0.0, 2.0]
    assert _json_value((1, [2j, None])) == [1, [[0.0, 2.0], None]]
    assert _json_value(None) is None
    assert _json_value("text") == "text" and _json_value(1.5) == 1.5
    assert _json_value({"kind": "basis"}) == {"kind": "basis"}
    assert _json_value(Annulus(1.0, 2.0)) == {"inner": 1.0, "outer": 2.0}
    assert _json_value([Annulus(0.0, 1.0)]) == [{"inner": 0.0, "outer": 1.0}]


def test_repr_false_fields_stay_out_of_the_json(reports):
    # a true annulus (r2 = 1 < r1 = 2) keeps its inner circle's winding for
    # condition B; the roots +-i sqrt(3) of 3 + z^2 lie inside it, so a root
    # disk witnesses the violation and the bound keeps its radius
    w = WeightSequence.doubling_blocks(2.0, 1.0)
    cert = i_of_adjoint(OperatorSpec(w, Polynomial((0.1, 0, 3))))
    assert cert.inner_winding is not None
    assert "innerWinding" not in cert.to_dict()
    cert = i_of_adjoint(OperatorSpec(w, Polynomial((3, 0, 1))))
    assert cert.root_radius is not None
    assert "rootRadius" not in cert.to_dict()

    @dataclass(frozen=True)
    class Example(Report):
        snake_case_name: complex
        hidden: int = field(default=0, repr=False)

    assert Example(1j, 5).to_dict() == {"snakeCaseName": [0.0, 1.0]}


@pytest.mark.parametrize("budget", [Budget(), Budget(grid_max=64, winding_max=128, truncation_n=4,
                                                     tol=1e-3)])
def test_budget_round_trips_through_json(budget):
    assert Budget.from_dict(json.loads(json.dumps(budget.to_dict()))) == budget


@pytest.mark.parametrize("op", [
    OP,
    OperatorSpec(WeightSequence.from_dict({"prefix": [4.0, 0.5],
                                           "tail": {"kind": "periodic", "values": [4, 1]}}),
                 Polynomial((0.5 - 1j, 0, 2 + 0.25j))),
    OperatorSpec(WeightSequence.from_dict({"prefix": [], "tail": {"kind": "blocks", "a": 2.0,
                                                                  "b": 1.0}}), identity_map()),
    OperatorSpec(WeightSequence.constant(2.0), Series((0, 1, 0.5j), 0.1, 0.3, 3.0)),
], ids=["constant", "periodic", "blocks", "series"])
def test_operator_spec_round_trips_through_json(op):
    assert OperatorSpec.from_dict(json.loads(json.dumps(op.to_dict()))) == op
