import json
import sys

import numpy as np
import pytest

from qest.cli import run

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


@pytest.fixture
def te_spec(tmp_path):
    spec = {
        "kind": "time_evolution",
        "params": {
            "h": [[[0.0, 0.0], [0.65, 0.0]], [[0.65, 0.0], [0.0, 0.0]]],
            "psi0": [[1.0, 0.0], [0.0, 0.0]],
        },
        "theta": [0.0],
    }
    path = tmp_path / "te.json"
    path.write_text(json.dumps(spec))
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


class TestTimeEnergy:
    def test_report(self, te_spec, capsys):
        assert run(["time-energy", "--model", te_spec,
                    "--dt", "0.3", "--n", "50", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["js"] - 1.69) <= 1e-9
        assert abs(report["j_mms"] - report["js"]) <= 1e-8
        assert abs(report["w"] - np.sin(1.3 * 0.3 / 2) ** 2) <= 1e-12


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
