import json

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
        import qest.cli
        calls = []
        search = qest.cli.oracle_min_weighted_variance

        def counting(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(qest.cli, "oracle_min_weighted_variance",
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
