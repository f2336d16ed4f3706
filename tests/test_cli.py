import ast
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import qest.cli
from qest.bounds import WeightMatrix, attainable_bound
from qest.cli import _emit_json, _json_floats, _matrix_lines, _real_rows, run
from qest.geometry import info_geometry
from qest.measurements import (
    construct_pvm_from_vectors,
    naimark_compress,
    optimal_vectors,
)
from qest.models import frame_at, load_model_spec
from qest.operators import InternalConsistencyError

SPIN_SPEC = {
    "kind": "spin_coherent",
    "params": {"s": 0.5, "m_z": 0.5},
    "theta": [np.pi / 3, np.pi / 4],
}


@pytest.fixture
def spin_spec(tmp_path):
    path = tmp_path / "spin.json"
    path.write_text(json.dumps(SPIN_SPEC))
    return str(path)


TE_SPEC = {
    "kind": "time_evolution",
    "params": {
        "h": [[[0.0, 0.0], [0.65, 0.0]], [[0.65, 0.0], [0.0, 0.0]]],
        "psi0": [[1.0, 0.0], [0.0, 0.0]],
    },
    "theta": [0.0],
}
NAN, INF = float("nan"), float("inf")


def _explicit(state=((1.0, 0.0), (0.0, 0.0)),
              tangent=((0.0, 0.0), (0.5, 0.0))):
    return {"kind": "explicit", "theta": [0.0],
            "params": {"state": state, "tangents": [tangent]}}


def _time_evolution(**params):
    return {**TE_SPEC, "params": {**TE_SPEC["params"], **params}}


@pytest.fixture
def te_spec(tmp_path):
    path = tmp_path / "te.json"
    path.write_text(json.dumps(TE_SPEC))
    return str(path)


class TestBound:
    def test_js_weight_prints_four(self, spin_spec, capsys):
        assert run(["bound", "--model", spin_spec, "--weight", "js"]) == 0
        out = capsys.readouterr().out
        assert "4.00000000" in out
        assert "attained" in out

    def test_json_format(self, spin_spec, capsys):
        assert run(["bound", "--model", spin_spec, "--weight", "js",
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["cr_value"] - 4.0) <= 1e-9
        assert report["method"] == "two_param"


class TestGeometry:
    def test_json_round_trip(self, spin_spec, capsys):
        assert run(["geometry", "--model", spin_spec,
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["coherent"] is True
        assert report["det_check_consistent"] is True
        js = np.array(report["js"])
        assert abs(js[0, 0] - 1.0) <= 1e-6

    def test_theta_override(self, spin_spec, capsys):
        assert run(["geometry", "--model", spin_spec, "--theta", "0.9,0.1",
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["theta"] == [0.9, 0.1]


class TestBoundary:
    def test_csv_shape(self, capsys):
        assert run(["boundary", "--beta", "0.8", "--samples", "21"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "beta,x,z,branch"
        assert len(lines) == 1 + 21 + 2   # curve samples + two half-lines

    def test_values_full_precision(self, capsys):
        assert run(["boundary", "--beta", "0.6", "--samples", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        mid = [ln for ln in lines[1:] if ln.endswith("curve")]
        x, z = (float(v) for v in mid[len(mid) // 2].split(",")[1:3])
        assert abs(x) <= 1e-12
        assert abs(2 * z - 4.0 / (1.0 + 0.8)) <= 1e-12

    @pytest.mark.parametrize("extra", [
        ["--beta", "1", "--samples", "3", "--x-range", "1e300"],
        ["--beta", "0.999999", "--samples", "50"]],
        ids=["beta_1_x_range_1e300", "beta_0.999999"])
    def test_json_is_strict_and_quiet(self, extra):
        rc, out, err = _cold_run(["boundary", *extra, "--format", "json"])
        assert rc == 0 and err == ""
        zs = [r["z"] for r in _strict_json(out)["rows"]]
        assert np.isfinite(zs).all() and min(zs) >= 1.0
        if "1e300" in extra:
            # from |x| = 2^27 on, the hyperbola's z is 1 + |x| to the bit
            assert zs == [1e300, 2.0, 1e300, 1e300, 1e300]


def _strict_json(text):
    """json.loads that refuses the non-JSON constants NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class TestMeasurement:
    def test_risk_matches_bound(self, spin_spec, capsys):
        assert run(["measurement", "--model", spin_spec,
                    "--weight", "js", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["risk"] - report["cr_value"]) <= 1e-8
        assert report["method"] == "two_param"
        elements = report["elements"]
        total = sum(np.array([[complex(re, im) for re, im in row]
                              for row in e]) for e in elements)
        assert np.max(np.abs(total - np.eye(2))) <= 1e-10

    def test_include_elements_prints_them(self, spin_spec, capsys):
        argv = ["measurement", "--model", spin_spec, "--weight", "js"]
        assert run(argv) == 0
        plain = capsys.readouterr().out
        assert run(argv + ["--include-elements"]) == 0
        full = capsys.readouterr().out
        assert run(argv + ["--format", "json"]) == 0
        elements = np.array(json.loads(capsys.readouterr().out)["elements"])
        expected = []
        for k, e in enumerate(elements):
            expected += _matrix_lines(f"element {k} real", e[..., 0])
            expected += _matrix_lines(f"element {k} imag", e[..., 1])
        assert "element" not in plain
        assert full == plain + "\n".join(expected) + "\n"


class TestTimeEnergy:
    def test_report(self, te_spec, capsys):
        assert run(["time-energy", "--model", te_spec,
                    "--dt", "0.3", "--n", "50", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["js"] - 1.69) <= 1e-9
        assert abs(report["j_mms"] - report["js"]) <= 1e-8
        assert abs(report["w"] - np.sin(1.3 * 0.3 / 2) ** 2) <= 1e-12

    def test_huge_dt_is_quiet(self, te_spec):
        # the quadratic approximation overflows to inf; w_ratio's limit is 0.
        # A fresh process, so that a numpy warning would reach stderr
        rc, out, err = _cold_run(["time-energy", "--model", te_spec,
                                  "--dt", "1e308", "--n", "10",
                                  "--format", "json"])
        assert (rc, err) == (0, "")
        assert json.loads(out)["w_ratio"] == 0.0

    def test_stationary_state_ratio_is_null(self, tmp_path, capsys):
        # psi0 = e_0 is an eigenvector of h = diag(1, 2): w and its
        # quadratic approximation are both 0, so their ratio is undefined
        path = tmp_path / "stationary.json"
        path.write_text(json.dumps(_time_evolution(
            h=[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]])))
        argv = ["time-energy", "--model", str(path), "--dt", "0.1",
                "--n", "5"]
        assert run(argv + ["--format", "json"]) == 0
        report = _strict_json(capsys.readouterr().out)
        assert report["w"] == 0.0 and report["w_ratio"] is None
        assert run(argv) == 0
        assert capsys.readouterr().out.endswith(
            "w / quadratic approx:   nan\n")


class TestStrictJson:
    @pytest.mark.parametrize("report", [
        {"cr_value": INF}, {"rows": [{"z": NAN}]},
        {"method": "sld", "elements": np.array([[0.0, -INF]])},
    ], ids=["inf", "nested_nan", "elements"])
    def test_non_finite_number_refused(self, report, capsys):
        with pytest.raises(InternalConsistencyError):
            _emit_json(report, None)
        assert capsys.readouterr().out == ""

    def test_report_holding_inf_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(qest.cli, "boundary_curve",
                            lambda *args, **kwargs: [(0.0, INF, "curve")])
        assert run(["boundary", "--beta", "0.5", "--format", "json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not strict JSON" in captured.err


SPIN_3HALF_SPEC = {"kind": "spin_coherent", "params": {"s": 1.5, "m_z": 0.5},
                   "theta": [0.3, 0.7]}


class TestHugeWeight:
    """A finite weight is refused at entry (exit 2) where twice its SLD
    floor overflows, since every closed form lies between the floor and
    twice it; before, such weights printed NaN or Infinity or raised."""

    @pytest.mark.parametrize("cmd, spec, extra", [
        ("bound", SPIN_3HALF_SPEC, ()),
        ("measurement", SPIN_3HALF_SPEC, ()),
        ("oracle", SPIN_3HALF_SPEC, ("--restarts", "2", "--steps", "20")),
        ("bound", {"kind": "canonical", "params": {"energies": [0, 0.7, 1.3]},
                   "theta": [5.0]}, ()),
        ("simulate-qmle", {**SPIN_SPEC, "theta": [1.0, 0.7]},
         ("--samples", "20", "--trials", "2")),
    ], ids=["bound", "measurement", "oracle", "bound_canonical",
            "simulate_qmle"])
    def test_refused_cold(self, tmp_path, cmd, spec, extra):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(spec))
        m = len(spec["theta"])
        weight = tmp_path / "weight.json"
        weight.write_text(json.dumps((1e308 * np.eye(m)).tolist()))
        rc, out, err = _cold_run([cmd, "--model", str(model), "--weight",
                                  str(weight), "--format", "json", *extra])
        assert (rc, out) == (2, "")
        assert "SLD floor" in err and str(weight) in err
        assert "Traceback" not in err and "Warning" not in err

    def test_large_weight_keeps_its_value(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(SPIN_3HALF_SPEC))
        weight = tmp_path / "weight.json"
        weight.write_text("[[1e300, 0], [0, 1e300]]")
        assert run(["bound", "--model", str(model), "--weight", str(weight),
                    "--format", "json"]) == 0
        assert '"cr_value":1.7813760179690022e+300,' in (
            capsys.readouterr().out)


class TestScaledWeight:
    """A weight far from unit scale gives its bound, its measurement and
    its oracle, cold, with strict JSON and a quiet stderr."""

    SQUEEZED = {"kind": "squeezed", "trunc_dim": 32,
                "theta": [0.1, -0.1, 0.2, 0.2]}

    @pytest.mark.parametrize("cmd, extra", [
        ("bound", ()), ("measurement", ()),
        ("oracle", ("--restarts", "2", "--steps", "50"))],
        ids=["bound", "measurement", "oracle"])
    def test_huge_coherent_weight(self, tmp_path, cmd, extra):
        # G = 1e200 I: the coherent closed form never squares its core
        model = write_spec(tmp_path, "squeezed", self.SQUEEZED)
        weight = tmp_path / "weight.json"
        weight.write_text(json.dumps((1e200 * np.eye(4)).tolist()))
        rc, out, err = _cold_run([cmd, "--model", model, "--weight",
                                  str(weight), "--format", "json", *extra])
        assert (rc, err) == (0, "")
        assert _strict_json(out)["cr_value"] > 1e200

    def test_tiny_weight_measurement(self, tmp_path):
        # G = 1e-13 diag(1, 2) is strict, as diag(1, 2) is: its measurement
        # attains the two-parameter bound
        model = write_spec(tmp_path, "spin", {**SPIN_SPEC,
                                              "theta": [1.0, 0.7]})
        weight = tmp_path / "weight.json"
        weight.write_text(json.dumps([[1e-13, 0.0], [0.0, 2e-13]]))
        rc, out, err = _cold_run(["measurement", "--model", model,
                                  "--weight", str(weight), "--format",
                                  "json"])
        assert (rc, err) == (0, "")
        report = _strict_json(out)
        assert abs(report["risk"] - report["cr_value"]) <= (
            1e-8 * report["cr_value"])

    @pytest.mark.parametrize("s", [1e-308, 1e-310])
    def test_subnormal_weight_measurement(self, tmp_path, s):
        # spin 3/2 is not coherent, so its estimator forms
        # (G - i Lambda)^{-1}, which overflows at G's own scale
        model = write_spec(tmp_path, "spin", {
            "kind": "spin_coherent", "params": {"s": 1.5, "m_z": 0.5},
            "theta": [1.0, 0.7]})
        weight = tmp_path / "weight.json"
        weight.write_text(json.dumps((s * np.eye(2)).tolist()))
        rc, out, err = _cold_run(["measurement", "--model", model,
                                  "--weight", str(weight), "--format",
                                  "json"])
        assert (rc, err) == (0, "")
        report = _strict_json(out)
        assert abs(report["risk"] - report["cr_value"]) <= (
            1e-8 * report["cr_value"])


class TestWeightFile:
    def test_whitespace_matrix_matches_json(self, spin_spec, tmp_path,
                                            capsys):
        values = []
        for name, text in [("w.json", "[[1.0, 0.5], [0.5, 4.0]]"),
                           ("w.txt", "1.0 0.5\n0.5 4.0\n")]:
            (tmp_path / name).write_text(text)
            assert run(["bound", "--model", spin_spec, "--format", "json",
                        "--weight", str(tmp_path / name)]) == 0
            values.append(json.loads(capsys.readouterr().out)["cr_value"])
        assert values[0] == values[1]


class TestErrors:
    def test_missing_model_file(self, capsys):
        assert run(["bound", "--model", "/nonexistent.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_theta_length(self, spin_spec, capsys):
        assert run(["bound", "--model", spin_spec, "--theta", "0.5"]) == 2

    def test_bad_weight(self, spin_spec, tmp_path, capsys):
        w = tmp_path / "w.json"
        w.write_text("[[1.0, 0.5], [0.0, 1.0]]")   # not symmetric
        assert run(["bound", "--model", spin_spec,
                    "--weight", str(w)]) == 2

    def test_malformed_json_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "spin_coherent",,}')
        assert run(["geometry", "--model", str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err

    # (subcommand, spec changes, weight file text, extra argv, field named
    # in the message): each input is refused where it enters the program.
    BAD_INPUTS = {
        "ragged_weight": ("bound", {}, "[[1, 2], [3]]", [], "weight"),
        "non_numeric_weight": ("bound", {}, '[[1, 0], [0, "x"]]', [],
                               "weight"),
        "nan_weight": ("bound", {}, "[[1, 0], [0, NaN]]", [], "weight"),
        "non_numeric_whitespace_weight": ("bound", {}, "1 0\n0 x\n", [],
                                          "weight"),
        "missing_param": ("geometry", {"params": {"s": 0.5}}, None, [],
                          "m_z"),
        "non_numeric_theta": ("geometry", {"theta": ["a", 1]}, None, [],
                              "theta"),
        "non_numeric_theta_flag": ("geometry", {}, None, ["--theta", "a,b"],
                                   "theta"),
        "nan_theta_flag": ("geometry", {}, None, ["--theta=nan,1"],
                           "theta"),
        "zero_fd_step": ("geometry", {"fd_step": 0}, None, [], "fd_step"),
        "negative_hbar": ("geometry", {"hbar": -1.0}, None, [], "hbar"),
        "infinite_k_b": ("geometry", {"k_b": float("inf")}, None, [], "k_b"),
        "zero_trials": ("simulate-qmle", {}, None, ["--trials", "0"],
                        "trials"),
        "zero_reopt": ("simulate-qmle", {}, None, ["--reopt-every", "0"],
                       "reopt_every"),
        "zero_samples": ("simulate-qmle", {}, None, ["--samples", "0"],
                         "n_samples"),
        "zero_restarts": ("oracle", {}, None, ["--restarts", "0"],
                          "restarts=0"),
        "negative_steps": ("oracle", {}, None, ["--steps", "-1"],
                           "local_steps=-1"),
        "pm_shift_n_too_large": ("geometry", {
            "kind": "pm_shift", "params": {"n": 100}, "trunc_dim": 64,
            "theta": [0.1, 0.2]}, None, [], "'n'"),
        "pm_shift_n_vector": ("geometry", {
            "kind": "pm_shift", "params": {"n": [1, 0]},
            "theta": [0.1, 0.2]}, None, [], "'n'"),
        "pm_shift_n_fractional": ("geometry", {
            "kind": "pm_shift", "params": {"n": 1.7},
            "theta": [0.1, 0.2]}, None, [], "'n'"),
        "pm_shift_n_in_top_levels": ("geometry", {
            "kind": "pm_shift", "params": {"n": 62}, "trunc_dim": 64,
            "theta": [0.1, 0.2]}, None, [], "'n'"),
        "pm_shift_negative_n": ("geometry", {
            "kind": "pm_shift", "params": {"n": -1},
            "theta": [0.1, 0.2]}, None, [], "'n'"),
        "pm_shift_zero_trunc_dim": ("geometry", {
            "kind": "pm_shift", "params": {"n": 1}, "trunc_dim": 0,
            "theta": [0.1, 0.2]}, None, [], "trunc_dim"),
        "squeezed_small_trunc_dim": ("geometry", {
            "kind": "squeezed", "trunc_dim": 31,
            "theta": [0.1, 0.2, 0.3, 0.4]}, None, [], "trunc_dim"),
        "explicit_nan_state": ("geometry", _explicit(
            state=((NAN, 0.0), (0.0, 0.0))), None, [], "'state'"),
        "explicit_nan_tangent": ("bound", _explicit(
            tangent=((0.0, 0.0), (NAN, 0.0))), None, [], "'tangents'"),
        "explicit_inf_tangent": ("measurement", _explicit(
            tangent=((0.0, 0.0), (INF, 0.0))), None, [], "'tangents'"),
        "time_evolution_zero_psi0": ("geometry", _time_evolution(
            psi0=[[0.0, 0.0], [0.0, 0.0]]), None, [], "'psi0'"),
        "time_evolution_nan_h": ("geometry", _time_evolution(
            h=[[[NAN, 0.0], [0.65, 0.0]], [[0.65, 0.0], [0.0, 0.0]]]),
            None, [], "'h'"),
        "canonical_nan_energy": ("geometry", {
            "kind": "canonical", "params": {"energies": [0.0, NAN, 1.3]},
            "theta": [1.0]}, None, [], "energies"),
        "time_energy_nan_dt": ("time-energy", TE_SPEC, None,
                               ["--dt", "nan", "--n", "5"], "dt"),
        "time_energy_inf_dt": ("time-energy", TE_SPEC, None,
                               ["--dt", "inf", "--n", "5"], "dt"),
        "time_energy_zero_dt": ("time-energy", TE_SPEC, None,
                                ["--dt", "0", "--n", "5"], "dt"),
        "time_energy_zero_n": ("time-energy", TE_SPEC, None,
                               ["--dt", "0.1", "--n", "0"], "n must"),
        "time_energy_negative_n": ("time-energy", TE_SPEC, None,
                                   ["--dt", "0.1", "--n=-5"], "n must"),
        "time_energy_nan_t0": ("time-energy", TE_SPEC, None,
                               ["--dt", "0.1", "--n", "5", "--t0", "nan"],
                               "t0"),
        "rank_one_weight_qmle": ("simulate-qmle", {}, "[[1, 0], [0, 0]]",
                                 ["--samples", "20", "--trials", "2"],
                                 "weight"),
        # every trial's refits reach the Fock truncation's leaking region
        "simulate_all_trials_excluded": ("simulate-qmle", {
            "kind": "pm_shift", "params": {"n": 0}, "trunc_dim": 32,
            "theta": [3.6, 0.0]}, None,
            ["--samples", "20", "--trials", "3", "--reopt-every", "10"],
            "all 3 trials excluded"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_input_exits_2(self, case, tmp_path, capsys):
        cmd, changes, weight, extra, field = self.BAD_INPUTS[case]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({**SPIN_SPEC, **changes}))
        argv = [cmd, "--model", str(spec)] + extra
        if weight is not None:
            (tmp_path / "w.json").write_text(weight)
            argv += ["--weight", str(tmp_path / "w.json")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert field in err
        assert "Traceback" not in err

    # (spec, text in the message): model specs whose arrays have the wrong
    # shape, each refused where it enters the program
    MIXED_RHO = [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]]
    MALFORMED_SPECS = {
        "explicit_no_tangents": ({"kind": "explicit", "theta": [],
                                  "params": {"state": [[1.0, 0.0],
                                                       [0.0, 0.0]],
                                             "tangents": []}},
                                 "at least one tangent"),
        "explicit_tangent_nested": (_explicit(tangent=[[[0.0, 0.0]]]),
                                    "shape"),
        "explicit_tangent_short": (_explicit(tangent=[[0.0, 0.0]]), "shape"),
        "explicit_mixed_tangent_not_square": ({
            "kind": "explicit", "theta": [0.0],
            "params": {"pure": False, "state": MIXED_RHO, "tangents": [
                [[[0.0, 0.0], [0.1, 0.0], [0.0, 0.0]],
                 [[0.1, 0.0], [0.0, 0.0], [0.0, 0.0]]]]}}, "shape"),
        "explicit_mixed_tangent_vector": ({
            "kind": "explicit", "theta": [0.0],
            "params": {"pure": False, "state": MIXED_RHO,
                       "tangents": [[[0.0, 0.0], [0.1, 0.0]]]}}, "shape"),
        "explicit_empty_state": (_explicit(state=[]), "'state'"),
        "explicit_state_short_pairs": (_explicit(state=[[1.0], [0.0]]),
                                       "'state'"),
        "explicit_state_long_pairs": (_explicit(
            state=[[1.0, 0.0, 5.0], [0.0, 0.0, 5.0]]), "'state'"),
        "time_evolution_psi0_short_pairs": (_time_evolution(
            psi0=[[1.0], [0.0]]), "'psi0'"),
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
    def test_malformed_spec_exits_2(self, case, tmp_path, capsys):
        spec, field = self.MALFORMED_SPECS[case]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run(["geometry", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert field in err

    @pytest.mark.parametrize("x_range", ["nan", "inf", "0", "-1", "1e308"])
    def test_bad_x_range_exits_2(self, x_range, capsys):
        assert run(["boundary", "--beta", "0.6", "--samples", "5",
                    "--x-range", x_range]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "x_range" in err


    @pytest.mark.parametrize("cmd,fmt", [
        ("geometry", "csv"), ("bound", "csv"), ("measurement", "csv"),
        ("oracle", "csv"), ("time-energy", "csv"), ("boundary", "text")])
    def test_unsupported_format_exits_2(self, cmd, fmt, spin_spec, capsys):
        # each subcommand offers only the formats it writes
        where = (["--beta", "0.6"] if cmd == "boundary"
                 else ["--model", spin_spec])
        with pytest.raises(SystemExit) as exc:
            run([cmd, *where, "--format", fmt])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and repr(fmt) in err


class TestJsonOutput:
    """JSON output is one compact line with sorted keys; its numbers are the
    exact float64 values the library computed."""

    @pytest.mark.parametrize("argv", [
        ["geometry", "--model", "{spin}"],
        ["bound", "--model", "{spin}", "--weight", "js"],
        ["boundary", "--beta", "0.6", "--samples", "5"],
        ["measurement", "--model", "{spin}", "--weight", "js"],
        ["oracle", "--model", "{spin}", "--restarts", "2", "--steps", "50"],
        ["simulate-qmle", "--model", "{spin}", "--weight", "js",
         "--samples", "20", "--trials", "2", "--reopt-every", "10"],
        ["time-energy", "--model", "{te}", "--dt", "0.3", "--n", "50"],
        # the large element stacks, whose text _json_floats writes
        pytest.param(["measurement", "--model", "{pm_shift}", "--weight",
                      "identity"], id="measurement_pm_shift"),
        pytest.param(["measurement", "--model", "{squeezed}", "--weight",
                      "identity"], id="measurement_squeezed"),
    ], ids=lambda argv: argv[0])
    def test_one_line(self, argv, spin_spec, te_spec, tmp_path, capsys):
        paths = {"{spin}": spin_spec, "{te}": te_spec}
        if "{pm_shift}" in argv:
            paths["{pm_shift}"] = write_spec(tmp_path, "pm_shift", {
                "kind": "pm_shift", "trunc_dim": 128, "params": {"n": 1},
                "theta": [0.2, -0.1]})
        if "{squeezed}" in argv:
            paths["{squeezed}"] = write_spec(tmp_path, "squeezed", {
                "kind": "squeezed", "trunc_dim": 64,
                "theta": [0.1, -0.05, 0.3, 0.2]})
        argv = [paths.get(a, a) for a in argv] + ["--format", "json"]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and "\n" not in out[:-1]
        report = json.loads(out)
        assert list(report) == sorted(report)
        assert out == json.dumps(report, sort_keys=True,
                                 separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("spec", [
        {"kind": "spin_coherent", "params": {"s": 1.5, "m_z": 0.5},
         "theta": [1.0, 0.5]},
        {"kind": "pm_shift", "trunc_dim": 32, "params": {"n": 1},
         "theta": [0.2, -0.1]},
    ], ids=["spin_3half", "pm_shift"])
    def test_elements_bit_for_bit(self, spec, tmp_path, capsys):
        path = write_spec(tmp_path, "spec", spec)
        assert run(["measurement", "--model", path, "--seed", "7",
                    "--format", "json"]) == 0
        pairs = np.array(json.loads(capsys.readouterr().out)["elements"])
        got = np.empty(pairs.shape[:-1], dtype=complex)
        got.real, got.imag = pairs[..., 0], pairs[..., 1]

        model, theta = load_model_spec(spec)
        frame = frame_at(model, theta)
        geom = info_geometry(frame)
        weight = WeightMatrix.from_matrix(np.eye(2))
        bound = attainable_bound(geom, weight, model.pure)
        assert bound.method == "two_param"
        vectors, basis = optimal_vectors(frame, bound)
        pvm = construct_pvm_from_vectors(vectors)
        elements, _ = naimark_compress(pvm, basis)
        want = np.array(elements, dtype=complex)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_rows_match_loop_reference(self):
        # reference: element-by-element float() conversion; repr tells
        # -0.0 from 0.0, so equal reprs mean equal values and signs
        tiny = 5e-324
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        a[0, :3] = -0.0, tiny, -tiny
        z = np.empty((4, 4), dtype=complex)
        z.real, z.imag = a, rng.normal(size=(4, 4))
        z.imag[0, :3] = tiny, -0.0, -tiny
        real = _real_rows(a)
        text = _json_floats(np.stack([z.real, z.imag], axis=-1))
        pairs = [[[float(v.real), float(v.imag)] for v in row] for row in z]
        assert repr(real) == repr([[float(v) for v in row] for row in a])
        assert text == json.dumps(pairs, separators=(",", ":"))
        assert repr(real[0][:3]) == repr([-0.0, tiny, -tiny])
        assert repr(json.loads(text)[0][:3]) == repr(
            [[-0.0, tiny], [tiny, -0.0], [-tiny, -tiny]])
        assert all(type(v) is float for v in real[0])
        assert repr(json.loads(text)) == repr(pairs)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_json_floats_is_json_dumps(self, data):
        # a few magnitudes, each drawn with either sign, so that one
        # formatted magnitude serves both signs; -nan prints as NaN.  A
        # sparse array is zeros but for a few parts, some of them -0.0, and
        # has one axis up to 130 long, as the measurement stacks are
        shape = list(data.draw(hnp.array_shapes(min_dims=1, max_dims=4,
                                                min_side=1, max_side=4)))
        pool = data.draw(st.lists(
            st.sampled_from([0.0, 5e-324, INF, NAN])
            | st.floats(min_value=1e-300, max_value=1e300),
            min_size=1, max_size=5))
        sparse = data.draw(st.booleans())
        if sparse:
            shape[data.draw(st.integers(0, len(shape) - 1))] = data.draw(
                st.integers(1, 130))
        size = int(np.prod(shape))
        if sparse:
            a = np.zeros(size)
            for i, v, neg in data.draw(st.lists(st.tuples(
                    st.integers(0, size - 1), st.sampled_from(pool + [0.0]),
                    st.booleans()), max_size=12)):
                a[i] = -v if neg else v
        else:
            picks = data.draw(st.lists(
                st.tuples(st.sampled_from(pool), st.booleans()),
                min_size=size, max_size=size))
            a = np.array([-v if neg else v for v, neg in picks])
        a = a.reshape(shape)
        assert _json_floats(a) == json.dumps(a.tolist(),
                                             separators=(",", ":"))

    def test_json_floats_after_eviction(self):
        # more shapes than the zero-template cache holds, then the first
        # again: its template is built anew and its offsets are read-only
        rng = np.random.default_rng(11)
        shapes = [(3, n, 7, 2) for n in range(11, 22)] + [(3, 11, 7, 2)]
        cache = qest.cli._json_zeros
        assert len(shapes) - 1 > cache.cache_info().maxsize
        for shape in shapes:
            a = np.where(rng.random(shape) < 0.9, 0.0, rng.normal(size=shape))
            a[0, 0, 0] = -0.0, 0.0
            misses = cache.cache_info().misses
            assert _json_floats(a) == json.dumps(a.tolist(),
                                                 separators=(",", ":"))
        assert cache.cache_info().misses == misses + 1
        assert not cache(shapes[0])[1].flags.writeable

    def test_out_file_matches_stdout(self, spin_spec, tmp_path, capsys):
        argv = ["measurement", "--model", spin_spec, "--weight", "js",
                "--seed", "3", "--format", "json"]
        assert run(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "out.json"
        assert run(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()


class TestSeeding:
    def test_byte_identical_json(self, spin_spec, capsys):
        argv = ["oracle", "--model", spin_spec, "--weight", "js",
                "--restarts", "2", "--steps", "100", "--seed", "5",
                "--format", "json"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first

    def test_env_seed_fallback(self, spin_spec, capsys, monkeypatch):
        argv = ["oracle", "--model", spin_spec, "--weight", "js",
                "--restarts", "2", "--steps", "100", "--format", "json"]
        monkeypatch.setenv("QESTIM_SEED", "5")
        assert run(argv) == 0
        via_env = json.loads(capsys.readouterr().out)
        monkeypatch.delenv("QESTIM_SEED")
        assert run(argv + ["--seed", "5"]) == 0
        via_flag = json.loads(capsys.readouterr().out)
        assert via_env == via_flag

    def test_bad_env_seed(self, spin_spec, capsys, monkeypatch):
        monkeypatch.setenv("QESTIM_SEED", "not-a-number")
        assert run(["oracle", "--model", spin_spec, "--restarts", "1",
                    "--steps", "10"]) == 2
        assert run(["measurement", "--model", spin_spec]) == 2

    def test_measurement_does_not_depend_on_the_seed(self, tmp_path, capsys):
        # the PVM construction is deterministic; --seed is accepted only
        path = write_spec(tmp_path, "spin32", {
            "kind": "spin_coherent", "params": {"s": 1.5, "m_z": 0.5},
            "theta": [0.9, 2.0]})
        outs = []
        for seed in ("1", "2", "999"):
            assert run(["measurement", "--model", path, "--weight", "js",
                        "--seed", seed, "--format", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]


def _cold_run(argv):
    """``python -m qest.cli argv`` in a fresh interpreter: (rc, out, err)."""
    import qest
    src = os.path.dirname(os.path.dirname(os.path.abspath(qest.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "qest.cli", *argv], env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


WARM_SPECS = {
    "spin": SPIN_SPEC,
    "squeezed": {"kind": "squeezed", "trunc_dim": 32,
                 "theta": [0.1, -0.1, 0.2, 0.2]},
    "pm_shift": {"kind": "pm_shift", "trunc_dim": 32, "params": {"n": 1},
                 "theta": [0.3, -0.4]},
    "te": TE_SPEC,
}


class TestWarmPath:
    """Commands run one after another in one process (one parser, one Fock
    eigenbasis per truncation) print what a fresh process prints."""

    @pytest.fixture(scope="class")
    def cases(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("warm")
        paths = {}
        for name, spec in WARM_SPECS.items():
            paths[name] = str(root / f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(spec, fh)
        argvs = [["boundary", "--beta", "0.6", "--samples", "5"],
                 ["time-energy", "--model", paths["te"], "--dt", "0.1",
                  "--n", "5"]]
        for name in ("spin", "squeezed", "pm_shift"):
            model = ["--model", paths[name]]
            argvs += [
                ["geometry", *model],
                ["bound", *model, "--weight", "js", "--format", "json"],
                ["measurement", *model, "--weight", "js"],
                ["oracle", *model, "--restarts", "2", "--steps", "50",
                 "--format", "json"],
                ["simulate-qmle", *model, "--weight", "js", "--samples",
                 "20", "--trials", "2", "--reopt-every", "10"],
                ["time-energy", *model, "--dt", "0.1", "--n", "5"],
            ]
        env = os.environ.pop("QESTIM_SEED", None)
        try:
            return [(argv, _cold_run(argv)) for argv in argvs]
        finally:
            if env is not None:
                os.environ["QESTIM_SEED"] = env

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_bytes_equal_a_cold_process(self, cases, order, capsys,
                                        monkeypatch):
        import qest.cli
        import qest.models
        monkeypatch.delenv("QESTIM_SEED", raising=False)
        qest.cli.build_parser.cache_clear()
        qest.models._fock_displacement.cache_clear()
        qest.models._fock_squeeze.cache_clear()
        for argv, cold in (cases if order == "forward" else cases[::-1]):
            rc = run(argv)
            out, err = capsys.readouterr()
            assert (rc, out, err) == cold, argv
        assert {rc for _, (rc, _, _) in cases} == {0, 2}

    def test_parse_error_then_valid_command(self, spin_spec, capsys):
        argv = ["geometry", "--model", spin_spec, "--format", "json"]
        assert run(argv) == 0
        expected = capsys.readouterr().out
        for bad in (["geometry", "--model", spin_spec, "--bogus"],
                    ["geometry", "--model", spin_spec, "--format", "csv"],
                    ["no-such-command"]):
            with pytest.raises(SystemExit) as exc:
                run(bad)
            assert exc.value.code == 2
            capsys.readouterr()
            assert run(argv) == 0
            assert capsys.readouterr().out == expected

    def test_seed_flag_does_not_carry_over(self, spin_spec, capsys,
                                           monkeypatch):
        argv = ["oracle", "--model", spin_spec, "--restarts", "1",
                "--steps", "10", "--format", "json"]
        monkeypatch.delenv("QESTIM_SEED", raising=False)
        assert run(argv + ["--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 5
        monkeypatch.setenv("QESTIM_SEED", "7")
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7


class TestSelftest:
    def test_passes(self, capsys):
        assert run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().endswith("0 failing check(s)")


class TestSimulateQmle:
    def test_tiny_run_with_trials_csv(self, spin_spec, tmp_path, capsys):
        csv_path = tmp_path / "trials.csv"
        assert run(["simulate-qmle", "--model", spin_spec,
                    "--weight", "js", "--samples", "40", "--trials", "3",
                    "--reopt-every", "20", "--seed", "3",
                    "--trials-out", str(csv_path),
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["excluded_trials"] == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,n,theta_hat_1,theta_hat_2"
        assert len(lines) == 4


SPIN1_SPEC = {
    "kind": "spin_coherent",
    "params": {"s": 1.0, "m_z": 0.0},
    "theta": [1.1, 0.4],
}

# Faithful qubit rho = diag(0.7, 0.3) with tangents 0.1 sigma_x, 0.1 sigma_y:
# mixed and not quasi-classical, so no closed form and no oracle.
MIXED_SPEC = {
    "kind": "explicit",
    "theta": [0.0, 0.0],
    "params": {
        "pure": False,
        "state": [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]],
        "tangents": [
            [[[0.0, 0.0], [0.1, 0.0]], [[0.1, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, -0.1]], [[0.0, 0.1], [0.0, 0.0]]],
        ],
    },
}


def explicit3_spec():
    """Pure 3-parameter model with lift Gram matrix I + i*JT (phi = e_0,
    tangent i = lift i / 2): odd m and not quasi-classical, so `bound`
    answers with the [SLD floor, oracle] interval."""
    jt = np.array([[0.0, -0.5, 0.2], [0.5, 0.0, -0.3], [-0.2, 0.3, 0.0]])
    w, u = np.linalg.eigh(np.eye(3) + 1j * jt)
    b = (u * np.sqrt(w)) @ u.conj().T
    tangents = [[[0.0, 0.0]] + [[v.real / 2, v.imag / 2] for v in b[:, i]]
                for i in range(3)]
    state = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    return {"kind": "explicit", "theta": [0.0, 0.0, 0.0],
            "params": {"state": state, "tangents": tangents}}


def write_spec(tmp_path, name, spec):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def elements_sum(report):
    return sum(np.array([[complex(re, im) for re, im in row] for row in e])
               for e in report["elements"])


class TestQuasiClassicalPureMeasurement:
    """Spin 1 with m_z = 0 has Jtilde = 0: the SLD bound Tr G J^{S-1} is
    attained by estimation vectors X = L J^{S-1} for any weight."""

    @pytest.mark.parametrize("g", [None, [[2.0, 0.3], [0.3, 0.5]]])
    def test_attains_sld_floor(self, tmp_path, capsys, g):
        spec = write_spec(tmp_path, "spin1", SPIN1_SPEC)
        weight = "identity" if g is None else write_spec(tmp_path, "w", g)
        assert run(["measurement", "--model", spec, "--weight", weight,
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        th = SPIN1_SPEC["theta"]
        js = 4.0 * np.diag([1.0, np.sin(th[0]) ** 2])   # 2 (s^2 + s) diag
        gm = np.eye(2) if g is None else np.array(g)
        floor = np.trace(gm @ np.linalg.inv(js))
        assert report["method"] == "sld"
        assert abs(report["cr_value"] - floor) <= 1e-6 * floor
        assert abs(report["risk"] - report["cr_value"]) <= 1e-10
        assert np.max(np.abs(elements_sum(report) - np.eye(3))) <= 1e-10


SQUEEZED_SPEC = {"kind": "squeezed", "trunc_dim": 64,
                 "theta": [0.1, -0.05, 0.3, 0.2]}


class TestCoherentMeasurement:
    """A coherent model with m = 4 gets the measurement of ``cr_coherent``:
    X = L J^{S-1} plus its dilation tail in C^9."""

    def test_squeezed_attains_the_bound(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "squeezed", SQUEEZED_SPEC)
        assert run(["measurement", "--model", spec, "--weight", "identity",
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "coherent"
        assert abs(report["risk"] - report["cr_value"]) \
            <= 1e-8 * report["cr_value"]
        assert np.max(np.abs(elements_sum(report) - np.eye(64))) <= 1e-8

    def test_no_closed_form_refused(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "explicit3", explicit3_spec())
        assert run(["measurement", "--model", spec]) == 2
        assert "wait for a Holevo-bound optimizer" in capsys.readouterr().err


class TestMixedWithoutClosedForm:
    @pytest.mark.parametrize("cmd", [["bound"], ["oracle", "--restarts", "1",
                                                  "--steps", "10"]])
    def test_validation_error_not_traceback(self, tmp_path, capsys, cmd):
        spec = write_spec(tmp_path, "mixed", MIXED_SPEC)
        assert run(cmd + ["--model", spec]) == 2
        assert "pure model" in capsys.readouterr().err


class TestOracleSearchesOnce:
    @pytest.mark.parametrize("name,spec,weight", [
        ("explicit3", explicit3_spec(), "identity"),
        ("spin", SPIN_SPEC, "js"),
    ])
    def test_one_search_per_command(self, tmp_path, capsys, monkeypatch,
                                    name, spec, weight):
        import qest.oracle
        calls = []
        search = qest.oracle.oracle_min_weighted_variance

        def counting(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(qest.oracle, "oracle_min_weighted_variance",
                            counting)
        path = write_spec(tmp_path, name, spec)
        assert run(["oracle", "--model", path, "--weight", weight,
                    "--restarts", "2", "--steps", "50", "--seed", "5",
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert ("cr_value" in report) == (name == "spin")

    def test_bound_interval_on_explicit3(self, tmp_path, capsys):
        path = write_spec(tmp_path, "explicit3", explicit3_spec())
        assert run(["bound", "--model", path, "--restarts", "2",
                    "--steps", "50", "--seed", "5", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "interval"
        assert abs(report["lower"] - 3.0) <= 1e-9      # Tr J^{S-1}, J^S = I
        assert report["lower"] <= report["upper"]


CANONICAL_SPEC = {"kind": "canonical", "params": {"energies": [0.0, 0.7, 1.3]},
                  "theta": [1.0]}


class TestOneFramePerCommand:
    """Each command evaluates the tangents and the geometry of its point
    once and hands them to every consumer."""

    @pytest.mark.parametrize("argv,name,spec,weight", [
        (["oracle", "--restarts", "2", "--steps", "50"], "spin", SPIN_SPEC,
         "js"),
        (["bound", "--restarts", "2", "--steps", "50"], "explicit3",
         explicit3_spec(), "identity"),
        (["measurement"], "canonical", CANONICAL_SPEC, "identity"),
    ])
    def test_one_evaluation(self, tmp_path, capsys, monkeypatch, argv, name,
                            spec, weight):
        import qest.geometry
        import qest.models
        counts = {"tangents": 0, "info_geometry": 0}

        def counting(fname, fn):
            def wrapped(*args, **kwargs):
                counts[fname] += 1
                return fn(*args, **kwargs)
            return wrapped

        wrappers = {
            "tangents": counting("tangents", qest.models.tangents),
            "info_geometry": counting("info_geometry",
                                      qest.geometry.info_geometry),
        }
        for modname, mod in list(sys.modules.items()):
            if modname == "qest" or modname.startswith("qest."):
                for fname, wrapper in wrappers.items():
                    if hasattr(mod, fname):
                        monkeypatch.setattr(mod, fname, wrapper)
        path = write_spec(tmp_path, name, spec)
        assert run(argv + ["--model", path, "--weight", weight,
                           "--seed", "5", "--format", "json"]) == 0
        json.loads(capsys.readouterr().out)
        assert counts == {"tangents": 1, "info_geometry": 1}


def test_traced_names_resolve():
    # the benchmark tracer looks its functions up by name: a rename or a
    # deletion in qest would crash every traced benchmark run
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "perfbench", "tracer.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    traced, = (ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["TRACED"])
    missing = [f"{mod}.{name}" for mod, names in traced.items()
               for name in names
               if not callable(getattr(importlib.import_module(mod), name,
                                       None))]
    assert traced and missing == []


def test_import_loads_no_scipy():
    # scipy is a test dependency only: the library and the CLI run on numpy
    import qest
    src = os.path.dirname(os.path.dirname(os.path.abspath(qest.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = ("import sys, qest, qest.cli; print(qest.__file__); "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == [qest.__file__, "[]"]
