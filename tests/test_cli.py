import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import shiftspec.dynamics as dynamics
from shiftspec.cli import (
    EXIT_JCLASS,
    EXIT_NOT_JCLASS,
    EXIT_PARSE,
    EXIT_SIM_FAILED,
    EXIT_UNDECIDED,
    EXIT_UNSUPPORTED,
    _load_vector,
    load_instance,
    main,
)
from shiftspec.holo import Polynomial, winding_number


def write_instance(path, weights, map_, budgets=None):
    doc = {"weights": weights, "map": map_}
    if budgets:
        doc["budgets"] = budgets
    path.write_text(json.dumps(doc))
    return str(path)


def const_instance(path, c, coeffs, budgets=None):
    return write_instance(
        path,
        {"prefix": [], "tail": {"kind": "constant", "value": c}},
        {"kind": "poly", "coeffs": coeffs},
        budgets,
    )


IDENTITY = [[0, 0], [1, 0]]
ONE_PLUS_Z2 = [[1, 0], [0, 0], [1, 0]]


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


# -- analyze ------------------------------------------------------------------


def test_analyze_constant(tmp_path, capsys):
    path = const_instance(tmp_path / "i.json", 2.0, IDENTITY)
    assert main(["analyze", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["profile"] == {"exactness": "EXACT", "r1": 2.0, "r2": 2.0, "r3": 2.0}


def test_analyze_periodic_geomean(tmp_path, capsys):
    path = write_instance(
        tmp_path / "i.json",
        {"prefix": [], "tail": {"kind": "periodic", "values": [4, 1]}},
        {"kind": "poly", "coeffs": IDENTITY},
    )
    assert main(["analyze", path]) == 0
    prof = json.loads(capsys.readouterr().out)["profile"]
    assert prof["r1"] == pytest.approx(2.0)
    assert prof["r2"] == pytest.approx(2.0)


def test_analyze_blocks(tmp_path, capsys):
    path = write_instance(
        tmp_path / "i.json",
        {"prefix": [], "tail": {"kind": "blocks", "a": 2, "b": 1}},
        {"kind": "poly", "coeffs": IDENTITY},
    )
    assert main(["analyze", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["profile"]["r1"] == 2.0 and out["profile"]["r2"] == 1.0
    ann = out["picture"]["approxPointSpectrumOfAdjointSide"]["base"]
    assert (ann["inner"], ann["outer"]) == (1.0, 2.0)


def test_analyze_deterministic(tmp_path, capsys):
    path = const_instance(tmp_path / "i.json", 2.0, ONE_PLUS_Z2)
    main(["analyze", path])
    first = capsys.readouterr().out
    main(["analyze", path])
    assert capsys.readouterr().out == first


# -- decide --------------------------------------------------------------------


def test_decide_exit_codes(tmp_path):
    assert main(["decide", const_instance(tmp_path / "a.json", 2.0, IDENTITY)]) == EXIT_JCLASS
    assert main(["decide", const_instance(tmp_path / "b.json", 1.0, IDENTITY)]) == EXIT_NOT_JCLASS
    near = const_instance(tmp_path / "c.json", math.sqrt(2), ONE_PLUS_Z2)
    assert main(["decide", near]) == EXIT_UNDECIDED


def test_decide_verdict_json(tmp_path, capsys):
    path = const_instance(tmp_path / "i.json", 2.0, IDENTITY)
    main(["decide", path])
    out = json.loads(capsys.readouterr().out)
    assert out["decision"] == "JCLASS"
    assert out["conditionA"]["lowerBound"] == 2.0
    assert out["margin"] == 1.0


def test_decide_route_both_consistency(tmp_path, capsys):
    path = const_instance(tmp_path / "i.json", 2.0, ONE_PLUS_Z2)
    assert main(["decide", path, "--route", "both"]) == EXIT_JCLASS
    out = json.loads(capsys.readouterr().out)
    assert out["consistency"]["consistent"] is True
    assert out["consistency"]["moduli"]["decision"] == "JCLASS"


def test_decide_byte_identical(tmp_path, capsys):
    path = const_instance(tmp_path / "i.json", 1.5, ONE_PLUS_Z2)
    main(["decide", path])
    first = capsys.readouterr().out
    main(["decide", path])
    assert capsys.readouterr().out == first


def test_decide_winding_past_product_range(tmp_path, capsys):
    # |f| >= 3e160 on the circle |z| = 2: the product of two raw samples
    # would overflow, the product of their unit directions does not
    coeffs = [[1e160, 0], [0, 0], [1e160, 0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wind = winding_number(Polynomial((1e160, 0, 1e160)), 2.0, 0j)
    assert (wind.winding, wind.valid, wind.samples) == (2, True, 256)
    # the CLI reads that winding from the root disks of +-i, with no sample
    path = const_instance(tmp_path / "i.json", 2.0, coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["decide", path, "--route", "both"]) == EXIT_JCLASS
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert out["decision"] == "JCLASS"
    wind = out["conditionB"]["winding"]
    assert (wind["winding"], wind["valid"], wind["samples"]) == (2, True, 0)


@pytest.mark.parametrize("argv", [
    ["decide"], ["decide", "--route", "moduli"], ["decide", "--route", "both"],
    ["plot", "--out", "{tmp}/p.svg"], ["simulate", "--out", "{tmp}/w.json"],
])
def test_overflowing_map_is_refused(tmp_path, capsys, argv):
    # |1 + z^2| on |z| = 1e160 leaves the float range: every command that
    # decides refuses the instance with exit 65 and names the overflow,
    # with no traceback and nothing on stdout
    path = const_instance(tmp_path / "i.json", 1e160, ONE_PLUS_Z2)
    code = main([argv[0], path, *(a.format(tmp=tmp_path) for a in argv[1:])])
    captured = capsys.readouterr()
    assert code == EXIT_UNSUPPORTED
    assert "overflows the float range" in captured.err
    assert captured.out == ""


def test_unpolishable_root_is_refused(tmp_path, capsys):
    # the degree-5 map's coefficients span 1e-27 to 1e27, so Newton cannot
    # bring its roots within the residual target: every command that needs
    # the roots refuses the instance with exit 65, the geometric route still
    # decides
    path = const_instance(tmp_path / "i.json", 3.0525464712316735e-13, [
        [-0.030230918027711034, 4.693546993125406e-27],
        [-391191935190.17896, 8.593923327841348e-07],
        [-6.319213620647699e+26, -0.018734087215100805],
        [-9.893809672877182e-20, 11525475416.519472],
        [-0.0003553455353451098, 1.5083400660473308e+24],
        [-1.2116559775672778e-24, 6.204047326790037e-20]])
    assert main(["decide", path]) == EXIT_JCLASS
    capsys.readouterr()
    for argv in (["decide", path, "--route", "moduli"], ["decide", path, "--route", "both"],
                 ["simulate", path]):
        assert main(argv) == EXIT_UNSUPPORTED
        captured = capsys.readouterr()
        assert "root refinement residuals" in captured.err
        assert captured.out == ""


def test_simulate_rate_past_float_range(tmp_path, capsys):
    # 1e80 z on constant weight 2 contracts by 2e80 per solve, so rate^m
    # leaves the float range at stage 4; the constant is fitted in logs there
    path = const_instance(tmp_path / "i.json", 2.0, [[0, 0], [1e80, 0]])
    assert main(["simulate", path, "--stages", "4"]) == 0
    wit = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert wit["ok"] is True and wit["n0"] == 1 and len(wit["stages"]) == 4
    assert wit["constant"] == 1.0
    assert [s["norm"] for s in wit["stages"][:3]] == [5e-81, 2.5e-161, 1.25e-241]
    # stage 5 would be about 3e-402: the solve underflows to the zero vector,
    # whose round trip misses stage 4, and the witness stops there
    assert main(["simulate", path]) == EXIT_SIM_FAILED
    wit = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert len(wit["stages"]) == 4
    assert wit["failure"] == "solve chain underflowed to the zero vector at stage 5"


def _extreme(rng, s: int, signed: bool = False) -> float:
    """0.1 to 9.9 times 10^k with k uniform in [-s, s], with a random sign if asked."""
    sign = rng.choice((-1.0, 1.0)) if signed else 1.0
    return float(sign * rng.uniform(0.1, 9.9) * 10.0 ** int(rng.integers(-s, s + 1)))


def _extreme_instance(rng, s: int) -> dict:
    prefix = [_extreme(rng, s) for _ in range(int(rng.integers(0, 4)))]
    kind = ("constant", "periodic", "blocks")[int(rng.integers(0, 3))]
    if kind == "constant":
        tail = {"kind": kind, "value": _extreme(rng, s)}
    elif kind == "periodic":
        tail = {"kind": kind, "values": [_extreme(rng, s) for _ in range(int(rng.integers(1, 4)))]}
    else:
        tail = {"kind": kind, "a": _extreme(rng, s), "b": _extreme(rng, s)}
    degree = int(rng.choice((1, 2, 3, 5, 9, 16)))
    coeffs = [[_extreme(rng, s, True), _extreme(rng, s, True)] for _ in range(degree + 1)]
    return {"weights": {"prefix": prefix, "tail": tail},
            "map": {"kind": "poly", "coeffs": coeffs}, "budgets": {"truncationN": 64}}


def test_extreme_instances_exit_with_documented_codes(tmp_path, capsys):
    # weights and coefficient parts 10^-100 to 10^100: every command either
    # answers or refuses with a documented exit code, and stdout stays strict
    # JSON; an overflow or an unpolishable root once escaped as a traceback
    rng = np.random.default_rng(0)
    path = tmp_path / "i.json"
    for index in range(40):
        doc = _extreme_instance(rng, (10, 30, 100)[index % 3])
        path.write_text(json.dumps(doc))
        for argv in (["decide"], ["decide", "--route", "both"], ["simulate"]):
            argv = [argv[0], str(path), *argv[1:]]
            try:
                code = main(argv)
            except Exception as exc:  # a crash, reported with its instance
                pytest.fail(f"{' '.join(argv[::2])} raised {exc!r} on {doc}")
            out = capsys.readouterr().out
            assert code in (0, 1, 2, EXIT_PARSE, EXIT_UNSUPPORTED, EXIT_SIM_FAILED), (code, doc)
            if out or (argv[0] == "decide" and code in (0, 1, 2)):
                json.loads(out, parse_constant=_reject_constant)


def test_simulate_names_solve_chain_underflow(tmp_path, capsys):
    # fuzz instance 37 of the seeded run above (prefix [2.9e-4, 8.0e21],
    # constant tail 3.8e27, degree 5, coefficients up to 3e29): every solve
    # shrinks the norm by about 1e-165, so the chain reaches the zero vector
    # at its third link; n0 = 4 once passed on that zero link, and stage 1
    # failed with "round trip residual 1.0"
    rng = np.random.default_rng(0)
    docs = [_extreme_instance(rng, (10, 30, 100)[index % 3]) for index in range(38)]
    path = tmp_path / "i.json"
    path.write_text(json.dumps(docs[37]))
    assert main(["simulate", str(path)]) == EXIT_SIM_FAILED
    captured = capsys.readouterr()
    wit = json.loads(captured.out, parse_constant=_reject_constant)
    assert wit["n0"] == 1 and wit["ok"] is False
    assert wit["failure"] == "solve chain underflowed to the zero vector at stage 3"
    assert "underflowed to the zero vector" in captured.err
    # stage 2's bound (about 1.6e-293) has rate**-2 = 2.6e-330, taken in logs
    assert [s["m"] for s in wit["stages"]] == [1, 2]
    assert all(0.0 < s["norm"] <= s["normBound"] * (1 + 1e-9) for s in wit["stages"])
    assert all(s["roundTripResidual"] <= 1e-6 for s in wit["stages"])


def test_decide_series_moduli_unsupported(tmp_path, capsys):
    path = write_instance(
        tmp_path / "i.json",
        {"prefix": [], "tail": {"kind": "constant", "value": 1.2}},
        {"kind": "series", "coeffs": [[0, 0], [0, 0], [3, 0]],
         "tailBound": 1e-12, "tailRatio": 0.1, "radius": 8.0},
    )
    assert main(["decide", path, "--route", "geometric"]) == EXIT_JCLASS
    capsys.readouterr()
    assert main(["decide", path, "--route", "moduli"]) == EXIT_UNSUPPORTED


def test_series_tail_at_its_float_edge_is_invalid_input(tmp_path, capsys):
    # tail_ratio * validity_radius rounds to 1, so the series is accepted, and
    # tail_ratio * r1 rounds to 1 as well: the tail bounds at r1 have no finite
    # value, so the geometric route refuses the instance
    q = 1 + 5e-13
    series = {"kind": "series", "coeffs": [[0, 0], [0.5, 0]], "tailBound": 1.0, "tailRatio": q}
    path = write_instance(tmp_path / "i.json",
                          {"prefix": [], "tail": {"kind": "constant", "value": 1 / q}},
                          {**series, "radius": math.nextafter(1 / q, 2.0)})
    for route in ("geometric", "both"):
        assert main(["decide", path, "--route", route]) == EXIT_UNSUPPORTED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: radius outside validity disk\n"
    # a validity radius whose product with the ratio passes 1 is refused as it
    # is read: near that radius the tail bounds would be negative
    path = write_instance(tmp_path / "j.json",
                          {"prefix": [], "tail": {"kind": "constant", "value": 0.9999999999999}},
                          {**series, "radius": 1.0})
    assert main(["decide", path]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and "need tail_ratio * radius <= 1" in captured.err


def test_parse_error_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"weights": \n  oops}')
    assert main(["decide", str(bad)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_schema_error_is_parse_failure(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"weights": {"prefix": [], "tail": {"kind": "nope"}}}))
    assert main(["decide", str(bad)]) == EXIT_PARSE


# a 400-digit integer overflows float(), and 1e400 parses to inf, which int() refuses
HUGE = "9" * 400


@pytest.mark.parametrize("weights, budgets", [
    (f'{{"prefix": [{HUGE}], "tail": {{"kind": "constant", "value": 2.0}}}}', None),
    ('{"prefix": [], "tail": {"kind": "constant", "value": 2.0}}', '{"truncationN": 1e400}'),
    ('{"prefix": [], "tail": {"kind": "constant", "value": 2.0}}', '{"gridMax": 1e400}'),
])
def test_overflowing_instance_numbers_are_parse_failures(tmp_path, capsys, weights, budgets):
    bad = tmp_path / "bad.json"
    doc = f'{{"weights": {weights}, "map": {{"kind": "poly", "coeffs": [[0, 0], [1, 0]]}}'
    bad.write_text(doc + (f', "budgets": {budgets}}}' if budgets else "}"))
    assert main(["decide", str(bad)]) == EXIT_PARSE
    assert "invalid instance" in capsys.readouterr().err


def test_overflowing_target_is_parse_failure(tmp_path, capsys):
    path = const_instance(tmp_path / "i.json", 2.0, IDENTITY)
    target = tmp_path / "target.json"
    target.write_text(f"[[{HUGE}, 0], [1, 0]]")
    assert main(["simulate", path, "--target", str(target)]) == EXIT_PARSE
    assert "invalid vector" in capsys.readouterr().err


def test_budget_overrides(tmp_path, monkeypatch):
    path = const_instance(tmp_path / "i.json", 2.0, ONE_PLUS_Z2, budgets={"gridMax": 4096})
    op, budget = load_instance(path)
    assert budget.grid_max == 4096 and budget.truncation_n == 256
    assert main(["decide", path, "--budget-grid", "8192"]) == EXIT_JCLASS
    tols, route = [], dynamics._solver
    monkeypatch.setattr(dynamics, "_solver", lambda op, tol: tols.append(tol) or route(op, tol))
    assert main(["simulate", path, "--tol", "1e-8"]) == 0
    assert tols == [1e-8]


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--bogus"],
        ["decide", "--budget-grid", "many"],
        *(["analyze", flag, "1"] for flag in ("--budget-grid", "--budget-winding", "--trunc-n", "--tol")),
        *([cmd, flag, "8"] for cmd in ("decide", "plot") for flag in ("--trunc-n", "--tol")),
        # an empty witness would read as a success
        *(["simulate", "--stages", count] for count in ("0", "-2")),
        # the growth probe's perturbation is fixed, so there is no seed
        ["simulate", "--seed", "3"],
    ],
)
def test_usage_errors_exit_64(tmp_path, capsys, argv):
    # argparse's own status 2 would read as UNDECIDED
    path = const_instance(tmp_path / "i.json", 2.0, IDENTITY)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], path, *argv[1:]])
    assert exc.value.code == EXIT_PARSE
    assert "usage:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "--budget-grid", "0"],
        ["plot", "--budget-winding", "0"],
        ["simulate", "--trunc-n", "0"],
        ["simulate", "--tol", "0"],
    ],
)
def test_zero_budget_flags_are_refused(tmp_path, argv):
    path = const_instance(tmp_path / "i.json", 2.0, IDENTITY)
    assert main([argv[0], path, *argv[1:]]) == EXIT_UNSUPPORTED


# -- simulate --------------------------------------------------------------------


def test_simulate_witness_and_csv(tmp_path, capsys):
    path = const_instance(tmp_path / "i.json", 2.0, IDENTITY)
    csv_path = tmp_path / "stages.csv"
    code = main(["simulate", path, "--stages", "5", "--out", str(csv_path)])
    assert code == 0
    wit = json.loads(capsys.readouterr().out)
    assert [s["norm"] for s in wit["stages"]] == [0.5, 0.25, 0.125, 0.0625, 0.03125]
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "m,norm,norm_bound,round_trip_residual"
    assert len(rows) == 6
    assert rows[1].startswith("1,0.5,0.5,0.0")


def test_simulate_zero_target(tmp_path, capsys):
    path = const_instance(tmp_path / "i.json", 2.0, IDENTITY)
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"coords": [[0, 0]] * 64, "exactPrefix": 64}))
    assert main(["simulate", path, "--target", str(target), "--stages", "3"]) == 0
    wit = json.loads(capsys.readouterr().out)
    assert all(s["norm"] == 0.0 for s in wit["stages"])


def test_simulate_pads_target_to_truncation(tmp_path, capsys, monkeypatch):
    path = const_instance(tmp_path / "i.json", 2.0, IDENTITY)
    target = tmp_path / "target.json"
    target.write_text(json.dumps([[1, 0]] * 64))
    sizes, route = [], dynamics._solver

    def recording(op, tol):
        solve = route(op, tol)
        return lambda y: sizes.append((y.size, y.exact_prefix)) or solve(y)

    monkeypatch.setattr(dynamics, "_solver", recording)
    assert main(["simulate", path, "--target", str(target), "--trunc-n", "512"]) == 0
    assert json.loads(capsys.readouterr().out)["targetNorm"] == 1.0
    # the padding carries no claim: the exact prefix starts at the file's 64
    assert sizes[0] == (512, 64) and {n for n, _ in sizes} == {512}


def test_load_vector_cuts_to_truncation(tmp_path):
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"coords": [[k, 0] for k in range(64)], "exactPrefix": 40}))
    x = _load_vector(str(target), 16)
    assert x.size == 16 and x.exact_prefix == 16
    assert list(x.coords.real) == list(range(16))


# 100 z (z - 2.02) on constant weight 2 is JCLASS with its outer root at
# r1 / |zeta| = 0.99: each solve at n = 4096 loses about 2,350 exact
# coordinates to the resolvent cut
def near_outer(tmp_path):
    return const_instance(tmp_path / "i.json", 2.0, [[0, 0], [-202, 0], [100, 0]], {"truncationN": 4096})


def inner_root_behind(tmp_path, prefix):
    # the inner root 1.99 of 200 z - 398 behind small prefix weights
    return write_instance(
        tmp_path / "i.json",
        {"prefix": prefix, "tail": {"kind": "constant", "value": 2.0}},
        {"kind": "poly", "coeffs": [[-398, 0], [200, 0]]},
    )


# the solve's transient (1.99 / 0.01)^k reaches ||x_1|| = 7.9e8 ||y||
def inner_transient(tmp_path):
    return inner_root_behind(tmp_path, [0.01] * 5)


# x_3 = (1.99 x_2 + y_2) / 1e-200 with x_2 = 5e197 passes the float range
def inner_divergence(tmp_path):
    return inner_root_behind(tmp_path, [1e-200] * 2)


def test_simulate_near_outer_root_one_stage(tmp_path, capsys):
    path = near_outer(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", path, "--stages", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    wit = json.loads(captured.out, parse_constant=_reject_constant)
    assert wit["ok"] is True and len(wit["stages"]) == 1


def test_simulate_near_outer_root_exhausts_prefix(tmp_path, capsys):
    # stage 2 keeps at most n0 deg exact coordinates, so its round trip
    # would check nothing: the witness stops instead of passing
    path = near_outer(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", path, "--stages", "3"]) == EXIT_SIM_FAILED
    captured = capsys.readouterr()
    assert captured.err == "simulation failure: exact prefix exhausted at stage 2\n"
    wit = json.loads(captured.out, parse_constant=_reject_constant)
    assert wit["ok"] is False and wit["failure"] == "exact prefix exhausted at stage 2"
    assert len(wit["stages"]) == 1


@pytest.mark.parametrize("stages, count", [(["--stages", "3"], 3), ([], 5)])
def test_simulate_inner_transient_passes(tmp_path, capsys, stages, count):
    # its round trips miss 1e-6 ||y|| (stage 1 by 1.2e-4) but stay within
    # the rounding that solves of that size allow
    assert main(["simulate", inner_transient(tmp_path), *stages]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    wit = json.loads(captured.out, parse_constant=_reject_constant)
    assert wit["ok"] is True and len(wit["stages"]) == count
    assert wit["stages"][0]["norm"] == pytest.approx(7.9e8, rel=0.01)
    assert wit["stages"][0]["roundTripResidual"] > 1e-6


def test_simulate_inner_divergence_exits_70(tmp_path, capsys):
    # the first solve overflows: the witness stops at stage 1, solves no
    # further and prints its JSON, and stderr holds one line (no warning)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", inner_divergence(tmp_path), "--stages", "3"]) == EXIT_SIM_FAILED
    captured = capsys.readouterr()
    assert captured.err == "simulation failure: non-finite norm at stage 1\n"
    wit = json.loads(captured.out, parse_constant=_reject_constant)
    assert wit["ok"] is False and wit["failure"] == "non-finite norm at stage 1"
    assert wit["stages"] == []


# each chain overflows first in one division outside the affine scan: y_k / w_k
# and zeta / w_k of the inner factor solve, and the preimage's z_k / window product
@pytest.mark.parametrize("prefix, coeffs, big_target", [
    ([1e-200] * 2, [[-398, 0], [200, 0]], True),
    ([1e-308], [[-38, 0], [20, 0]], False),
    ([1e-200] * 2, IDENTITY, True),
], ids=["inner_target", "inner_root", "preimage"])
def test_simulate_overflowing_division_exits_70(tmp_path, capsys, prefix, coeffs, big_target):
    path = write_instance(tmp_path / "i.json",
                          {"prefix": prefix, "tail": {"kind": "constant", "value": 2.0}},
                          {"kind": "poly", "coeffs": coeffs})
    argv = ["simulate", path, "--stages", "3"]
    if big_target:
        target = tmp_path / "target.json"
        target.write_text(json.dumps([[1e200, 0]] * 256))
        argv += ["--target", str(target)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_SIM_FAILED
    captured = capsys.readouterr()
    assert captured.err == "simulation failure: non-finite norm at stage 1\n"
    wit = json.loads(captured.out, parse_constant=_reject_constant)
    assert wit["ok"] is False and wit["failure"] == "non-finite norm at stage 1"


@pytest.mark.parametrize("instance", [near_outer, inner_divergence, inner_transient],
                         ids=lambda f: f.__name__)
def test_simulate_process_exit_code_is_documented(tmp_path, instance):
    path = instance(tmp_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "shiftspec.cli", "simulate", path, "--stages", "3"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode in (0, EXIT_PARSE, EXIT_UNSUPPORTED, EXIT_SIM_FAILED)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_simulate_refuses_not_jclass(tmp_path, capsys):
    path = const_instance(tmp_path / "i.json", 1.0, IDENTITY)
    assert main(["simulate", path, "--stages", "3"]) == EXIT_UNSUPPORTED
    assert "refusing" in capsys.readouterr().err


def test_simulate_orbit_envelope_csv(tmp_path, capsys):
    path = const_instance(tmp_path / "i.json", 2.0, IDENTITY)
    orbit = tmp_path / "orbit.csv"
    assert main(["simulate", path, "--stages", "4", "--orbit-csv", str(orbit)]) == 0
    rows = orbit.read_text().strip().splitlines()
    assert rows[0] == "n,prefix_sup,tail_sup"
    assert rows[1] == "0,1.0,1.0"
    assert rows[2].startswith("1,2.0,2.0")


@pytest.mark.parametrize("c, extra", [(20.0, []), (2.0, ["--trunc-n", "2048"])])
def test_simulate_overflowing_windows_strict_output(tmp_path, capsys, c, extra):
    # c^n exceeds the float range at this truncation; a failing run may
    # exit 70 but never prints NaN
    path = const_instance(tmp_path / "i.json", c, IDENTITY)
    code = main(["simulate", path, *extra])
    out = capsys.readouterr().out
    assert code in (0, EXIT_SIM_FAILED)
    wit = json.loads(out, parse_constant=_reject_constant)
    assert wit["ok"] is (code == 0)
    for s in wit["stages"]:
        assert math.isfinite(s["norm"]) and math.isfinite(s["roundTripResidual"])


SHIFTED_SQUARE = str(Path(__file__).resolve().parents[1] / "instances" / "shifted_square.json")


@pytest.mark.parametrize(
    "c, path, extra",
    [
        (20.0, None, []),
        (2.0, None, ["--trunc-n", "2048"]),
        (None, SHIFTED_SQUARE, ["--trunc-n", "2048"]),
    ],
    ids=["weight20", "weight2-n2048", "shifted_square-n2048"],
)
def test_simulate_past_cumulative_product_range(tmp_path, capsys, c, path, extra):
    # w_1 ... w_n leaves the float range at these truncations; the window
    # products the witness needs do not, so the run succeeds
    path = path or const_instance(tmp_path / "i.json", c, IDENTITY)
    assert main(["simulate", path, *extra]) == 0
    wit = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert wit["ok"] is True and len(wit["stages"]) == 5
    for s in wit["stages"]:
        assert math.isfinite(s["norm"]) and math.isfinite(s["roundTripResidual"])
        if c == 2.0:
            assert s["norm"] == 2.0 ** -s["m"]
            assert s["roundTripResidual"] == 0.0


IDENTITY_PLUS_SHIFT = str(Path(__file__).resolve().parents[1] / "instances" / "identity_plus_shift.json")


def test_identity_plus_shift_instance(capsys):
    # I + B_w on constant weight 3: min |1 + z| on |z| = 3 is 2 at z = -3,
    # in closed form, and the root -1 inside counts condition B's winding
    assert main(["decide", IDENTITY_PLUS_SHIFT]) == EXIT_JCLASS
    out = json.loads(capsys.readouterr().out)
    assert out["route"] == "CLOSED_FORM" and out["conditionB"]["winding"]["samples"] == 0
    assert out["conditionA"]["minSampled"] == 2.0 and out["conditionA"]["witnessPoint"] == [-3.0, 0.0]
    assert main(["decide", IDENTITY_PLUS_SHIFT, "--route", "both"]) == EXIT_JCLASS
    both = json.loads(capsys.readouterr().out)["consistency"]
    assert both["consistent"] is True and both["moduli"]["decision"] == "JCLASS"
    assert main(["simulate", IDENTITY_PLUS_SHIFT]) == 0
    wit = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert wit["ok"] is True and len(wit["stages"]) == 5


def test_simulate_loose_tol_keeps_root_routing(capsys):
    # the roots +-i of 1 + z^2 clear the inner radius 1.5 by 0.5; a loose
    # residual tolerance must not move them into the annulus
    assert main(["simulate", SHIFTED_SQUARE, "--tol", "1"]) == 0
    wit = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert wit["ok"] is True


def test_simulate_jset_mode(tmp_path, capsys):
    path = const_instance(tmp_path / "i.json", 2.0, IDENTITY)
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"coords": [[0, 0]] * 256, "exactPrefix": 256}))
    assert main(["simulate", path, "--jset-start", str(start)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "MEMBER"
    assert rep["memberships"][0]["finalError"] == 0.0


def test_simulate_jset_mode_follows_tol(tmp_path, capsys, monkeypatch):
    # (z - 0.5)(z - 9): --tol reaches the solver, and the outer root's
    # values do not depend on it, so a loose tolerance still certifies
    path = const_instance(tmp_path / "i.json", 2.0, [[4.5, 0], [-9.5, 0], [1, 0]])
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"coords": [[0, 0]] * 256, "exactPrefix": 256}))
    tols, route = [], dynamics._solver
    monkeypatch.setattr(dynamics, "_solver", lambda op, tol: tols.append(tol) or route(op, tol))
    for tol in ("1e-9", "1e-2"):
        assert main(["simulate", path, "--jset-start", str(start), "--tol", tol]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "MEMBER"
    assert tols == [1e-9, 1e-2]


@pytest.mark.parametrize("ones, code", [(8, EXIT_UNSUPPORTED), (16, EXIT_UNSUPPORTED), (20, 0)])
def test_simulate_growth_probe_stays_in_the_exact_prefix(tmp_path, capsys, ones, code):
    # 4 steps of x^4 shift 16 coordinates out of the start vector's exact prefix
    path = const_instance(tmp_path / "i.json", 2.0, [[0, 0]] * 4 + [[1, 0]])
    start = tmp_path / "start.json"
    start.write_text(json.dumps([[1, 0]] * ones))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", path, "--jset-start", str(start)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err.startswith("invalid input: ") and captured.err.count("\n") == 1
    else:
        growth = json.loads(captured.out)["growth"]
        assert growth == {"certifiedRate": 16.0, "measuredRate": growth["measuredRate"], "steps": 4}
        assert growth["measuredRate"] == pytest.approx(16.0, rel=0.1)


@pytest.mark.parametrize("flag", ["--out", "--orbit-csv"])
def test_simulate_jset_mode_refuses_csv_outputs(tmp_path, capsys, flag):
    path = const_instance(tmp_path / "i.json", 2.0, IDENTITY)
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"coords": [[0, 0]] * 256, "exactPrefix": 256}))
    csv_path = tmp_path / "out.csv"
    assert main(["simulate", path, "--jset-start", str(start), flag, str(csv_path)]) == EXIT_PARSE
    assert "--jset-start" in capsys.readouterr().err
    assert not csv_path.exists()


# -- plot ------------------------------------------------------------------------


def test_plot_svg(tmp_path):
    path = const_instance(tmp_path / "i.json", 2.0, ONE_PLUS_Z2)
    out = tmp_path / "pic.svg"
    assert main(["plot", path, "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "decision: JCLASS" in svg
    assert "r1 = 2" in svg

    out2 = tmp_path / "pic2.svg"
    main(["plot", path, "--out", str(out2)])
    assert out2.read_text() == svg  # deterministic


def test_plot_contour_csv(tmp_path):
    path = const_instance(tmp_path / "i.json", 2.0, IDENTITY)
    out = tmp_path / "pic.svg"
    csv_path = tmp_path / "contour.csv"
    assert main(["plot", path, "--out", str(out), "--contour-csv", str(csv_path)]) == 0
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "theta,re,im"
    assert len(rows) == 513


# -- misc ------------------------------------------------------------------------


def test_instance_round_trip(tmp_path):
    path = const_instance(tmp_path / "i.json", 2.0, ONE_PLUS_Z2)
    op, _ = load_instance(path)
    assert op.to_dict() == {
        "weights": {"prefix": [], "tail": {"kind": "constant", "value": 2.0}},
        "map": {"kind": "poly", "coeffs": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
    }


# -- start-up --------------------------------------------------------------------

# runs the CLI as `python -m shiftspec.cli` does, then reports on stderr which
# shiftspec modules and whether csv got loaded
_RUN_AND_LIST_MODULES = """
import runpy, sys
sys.argv[0] = "shiftspec"
try:
    runpy.run_module("shiftspec.cli", run_name="__main__")
finally:
    print("LOADED", *sorted(m for m in sys.modules if m.startswith("shiftspec") or m == "csv"),
          file=sys.stderr)
"""


@pytest.mark.parametrize("argv, loads, skips", [
    (["analyze"], [], ["jclass", "dynamics", "svgplot", "csv"]),
    (["decide"], [], ["dynamics", "svgplot", "csv"]),
    (["decide", "--route", "both"], [], ["dynamics", "svgplot", "csv"]),
    (["plot", "--contour-csv", "contour.csv"], ["svgplot", "csv"], ["dynamics"]),
    (["simulate"], ["dynamics"], ["svgplot"]),
], ids=["analyze", "decide", "decide-both", "plot", "simulate"])
def test_subcommand_loads_only_its_layers(tmp_path, argv, loads, skips):
    # a top-level import of a layer in cli.py, or an eager package
    # __init__, puts the compile cost of every layer back on every process
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, argv[0], SHIFTED_SQUARE, *argv[1:]],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == EXIT_JCLASS, proc.stderr
    loaded = proc.stderr.splitlines()[-1].split()
    assert loaded[0] == "LOADED"
    names = {"csv" if m == "csv" else m.removeprefix("shiftspec.") for m in loaded[1:]}
    assert {"shiftspec", "budget", "weights", "holo", "spectra"} <= names
    assert set(loads) <= names and not set(skips) & names
