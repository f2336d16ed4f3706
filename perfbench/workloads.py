"""Model specs, per-workload op lists and per-op correctness checks.

Every input is generated from the workload seed: theta points and the
``--seed`` values handed to qest.  An op is one ``qest`` command line; the
same op (same key) must give the same output bytes wherever it runs.
"""

import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from metrics import WORKLOADS

# Oracle budget of ``qest bound`` in the interval regime.
ORACLE_BUDGET = ("--restarts", "16", "--steps", "1000")
# An oracle op may sit this far (relative) above the closed form it checks:
# 1e-3 at the interval budget, 10% at the small budgets of set-up and cli.
ORACLE_REL_TOL = {True: 1e-3, False: 0.1}

SIGMA_X = [[[0, 0], [0.1, 0]], [[0.1, 0], [0, 0]]]
SIGMA_Y = [[[0, 0], [0, -0.1]], [[0, 0.1], [0, 0]]]
# Lift Gram matrix of the 3-parameter pure explicit model is I + i*JT3:
# not quasi-classical, odd m, so no closed form applies (interval regime).
JT3 = np.array([[0.0, -0.5, 0.2], [0.5, 0.0, -0.3], [-0.2, 0.3, 0.0]])
ENERGIES = [0.0, 0.7, 1.3]
TE_OMEGA = 0.65


def _explicit3_spec():
    w, u = np.linalg.eigh(np.eye(3) + 1j * JT3)
    b = (u * np.sqrt(w)) @ u.conj().T
    # phi = e_0; tangent i = lift i / 2, with lift i = (0, b[:, i]).
    tangents = [[[0.0, 0.0]] + [[float(v.real) / 2, float(v.imag) / 2]
                                for v in b[:, i]] for i in range(3)]
    state = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    return {"kind": "explicit", "theta": [0.0, 0.0, 0.0],
            "params": {"state": state, "tangents": tangents}}


def _spin(s, m_z):
    return {"kind": "spin_coherent", "params": {"s": s, "m_z": m_z},
            "theta": [1.0, 0.5]}


SPECS = {
    "spin_half": _spin(0.5, 0.5),
    "spin_3half": _spin(1.5, 0.5),
    "spin_1": _spin(1.0, 0.0),
    "squeezed": {"kind": "squeezed", "trunc_dim": 64,
                 "theta": [0.1, -0.05, 0.3, 0.2]},
    "pm_shift": {"kind": "pm_shift", "trunc_dim": 128, "params": {"n": 1},
                 "theta": [0.2, -0.1]},
    "canonical": {"kind": "canonical", "params": {"energies": ENERGIES},
                  "theta": [1.0]},
    # Known defect D1: faithful mixed model that is not quasi-classical.
    "mixed": {"kind": "explicit", "theta": [0.0, 0.0],
              "params": {"pure": False,
                         "state": [[[0.7, 0], [0, 0]], [[0, 0], [0.3, 0]]],
                         "tangents": [SIGMA_X, SIGMA_Y]}},
    "explicit3": _explicit3_spec(),
    "time_evolution": {"kind": "time_evolution", "theta": [0.0],
                       "params": {"h": [[[0, 0], [TE_OMEGA, 0]],
                                        [[TE_OMEGA, 0], [0, 0]]],
                                  "psi0": [[1, 0], [0, 0]]}},
}


def _draw_theta(rng, spec):
    """A point of the spec's chart where every closed form is well posed and
    the Fock truncation does not leak."""
    kind = SPECS[spec]["kind"]
    if kind == "spin_coherent":
        return (rng.uniform(0.4, 2.6), rng.uniform(0.0, 6.2))
    if kind == "squeezed":
        return (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                rng.uniform(0.2, 0.4), rng.uniform(0.0, 3.1))
    if kind == "pm_shift":
        return (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    if kind == "canonical":
        return (rng.uniform(0.5, 2.0),)
    return tuple(SPECS[spec]["theta"])


@dataclass(frozen=True)
class Op:
    """One qest command line.  ``key`` names the op across processes;
    ``argv`` holds ``{model}`` and ``{trials}`` placeholders for paths."""

    key: str
    kind: str
    argv: tuple
    spec: str = None
    theta: tuple = None
    trials_out: bool = False

    def resolve(self, spec_dir, trials_path=None):
        out = []
        for a in self.argv:
            if a == "{model}":
                a = os.path.join(spec_dir, f"{self.spec}.json")
            elif a == "{trials}":
                a = trials_path
            out.append(a)
        return out


def _theta_arg(theta):
    return "--theta=" + ",".join(repr(float(v)) for v in theta)


class Plan:
    """The seeded inputs of one workload: specs on disk and the op rounds."""

    def __init__(self, workload, seed):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self._rng = random.Random(f"{workload}:{seed}")
        self.rounds = getattr(self, "_rounds_" + workload)()
        self.warmups = self._warmups()

    def write_specs(self, spec_dir):
        os.makedirs(spec_dir, exist_ok=True)
        for name, spec in SPECS.items():
            with open(os.path.join(spec_dir, f"{name}.json"), "w") as fh:
                json.dump(spec, fh)

    def round(self, index):
        return self.rounds[index % len(self.rounds)]

    def ops(self):
        """Every op of the plan by key: warm-ups and all rounds."""
        return {op.key: op for op in self.warmups
                + [op for rnd in self.rounds for op in rnd]}

    def _warmups(self):
        """One op of each kind, run during set-up (the first call in a
        process pays one-off costs): a small-budget op of the kind where
        ``_warmups_<workload>`` defines one, else the kind's first op."""
        small = getattr(self, "_warmups_" + self.workload, None)
        if small is not None:
            return small()
        seen = {}
        for op in self.rounds[0]:
            seen.setdefault(op.kind, op)
        return list(seen.values())

    # ---------------------------------------------------------------- helpers

    def _seed(self):
        return str(self._rng.randrange(1, 2**31))

    def _model_op(self, cmd, spec, theta, extra=(), kind=None, tag=""):
        argv = [cmd, "--model", "{model}"]
        if theta is not None and theta != tuple(SPECS[spec]["theta"]):
            argv.append(_theta_arg(theta))
        argv += list(extra)
        key = f"{kind or cmd}:{spec}:{tag}"
        return Op(key=key, kind=kind or cmd, argv=tuple(argv), spec=spec,
                  theta=theta if theta is not None
                  else tuple(SPECS[spec]["theta"]),
                  trials_out="{trials}" in extra)

    # -------------------------------------------------------------- workloads

    def _rounds_sweep(self):
        """Closed-form pipeline at seeded theta; two theta sets alternate
        over the rounds."""
        specs = ["spin_half", "spin_3half", "spin_1", "canonical",
                 "pm_shift", "squeezed"]
        rounds = []
        for t in range(2):
            ops = []
            for spec in specs:
                theta = _draw_theta(self._rng, spec)
                js = ("--weight", "js", "--seed", self._seed(),
                      "--format", "json")
                ident = ("--weight", "identity", "--seed", self._seed(),
                         "--format", "json")
                ops.append(self._model_op("geometry", spec, theta,
                                          ("--format", "json"), tag=t))
                ops.append(self._model_op("bound", spec, theta, js, tag=t))
                if spec != "squeezed":
                    ops.append(self._model_op("measurement", spec, theta,
                                              ident, tag=t))
            rounds.append(ops)
        return rounds

    def _rounds_oracle(self):
        """Every round runs the same ops, so each repeats within a run."""
        jobs = [("spin_half", "js", ()), ("spin_3half", "js", ()),
                ("squeezed", "js", ("--dilate-dim", "9")),
                ("explicit3", "identity", ()), ("mixed", "identity", ())]
        ops = []
        for i, (spec, weight, extra) in enumerate(jobs):
            theta = _draw_theta(self._rng, spec)
            args = ("--weight", weight, "--seed", self._seed()) \
                + ORACLE_BUDGET + tuple(extra) + ("--format", "json")
            ops.append(self._model_op("oracle", spec, theta, args, tag=i))
        return [ops]

    def _warmups_oracle(self):
        args = ("--weight", "js", "--seed", "1", "--restarts", "2",
                "--steps", "100", "--format", "json")
        return [self._model_op("oracle", "spin_half", None, args,
                               tag="warmup")]

    def _qmle_op(self, kind, theta, n, trials, reopt, tag):
        args = ("--weight", "js", "--samples", str(n), "--trials", str(trials),
                "--reopt-every", str(reopt), "--seed", self._seed(),
                "--trials-out", "{trials}", "--format", "json")
        return self._model_op("simulate-qmle", "spin_half", theta, args,
                              kind=kind, tag=tag)

    def _rounds_qmle(self):
        """Two op kinds of similar cost: reopt 1 (the CLI default) at N = 200
        and reopt 20 at N = 2000, at one seeded theta, so each op runs often
        enough in a run for its fastest run to be steady."""
        theta = _draw_theta(self._rng, "spin_half")
        return [[self._qmle_op("qmle_reopt1", theta, 200, 1, 1, 0),
                 self._qmle_op("qmle_reopt20", theta, 2000, 2, 20, 0)]]

    def _warmups_qmle(self):
        return [self._qmle_op("qmle_reopt1", None, 20, 1, 1, "warmup"),
                self._qmle_op("qmle_reopt20", None, 40, 1, 20, "warmup")]

    def _rounds_cli(self):
        """Cold one-shot processes: every subcommand across the spec set,
        small oracle and QMLE budgets.  One kind: a cold command."""
        small_oracle = ("--restarts", "4", "--steps", "200")
        ops = []

        def add(cmd, spec, extra=()):
            theta = _draw_theta(self._rng, spec)
            op = self._model_op(cmd, spec, theta, tuple(extra),
                                tag=len(ops))
            ops.append(Op(key="cli:" + op.key, kind="cli", argv=op.argv,
                          spec=op.spec, theta=op.theta,
                          trials_out=op.trials_out))

        js = ("--weight", "js")
        fmt = ("--format", "json")
        add("geometry", "spin_half", fmt)
        add("bound", "spin_half", js + fmt)
        add("measurement", "spin_half", ("--seed", self._seed()) + fmt)
        add("oracle", "spin_half",
            js + small_oracle + ("--seed", self._seed()) + fmt)
        add("simulate-qmle", "spin_half",
            js + ("--samples", "20", "--trials", "2", "--reopt-every", "5",
                  "--seed", self._seed(), "--trials-out", "{trials}") + fmt)
        add("bound", "spin_3half", js + fmt)
        add("measurement", "spin_1", fmt)            # known defect D2
        add("geometry", "squeezed", fmt)
        add("bound", "pm_shift", js + fmt)
        add("measurement", "canonical", fmt)
        add("bound", "mixed", fmt)                   # known defect D1
        add("bound", "explicit3",
            small_oracle + ("--seed", self._seed()) + fmt)
        add("time-energy", "time_evolution",
            ("--dt", "0.1", "--n", "50") + fmt)
        beta = repr(round(self._rng.uniform(0.2, 0.9), 6))
        ops.append(Op(key=f"cli:boundary:{beta}", kind="cli",
                      argv=("boundary", "--beta", beta, "--samples", "50")))
        ops.append(Op(key="cli:selftest", kind="cli", argv=("selftest",)))
        return [ops]


# -------------------------------------------------------------------- checks

class CheckError(Exception):
    """The output of an op disagrees with its closed form or contract."""


def _close(got, want, rtol, what):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape} != {want.shape}")
    tol = rtol * max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    dev = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not dev <= tol:
        raise CheckError(f"{what}: deviation {dev:.3e} > {tol:.1e}")


def closed_form(spec, theta):
    """Independent closed forms at theta: J^S, the beta spectrum (one entry
    per +-i pair) and |det J^S| where the paper gives one.  None where the
    spec has no closed form."""
    s = SPECS[spec]
    kind = s["kind"]
    if kind == "spin_coherent":
        sp, m_z = s["params"]["s"], s["params"]["m_z"]
        c = sp * sp + sp - m_z * m_z
        js = 2 * c * np.diag([1.0, math.sin(theta[0]) ** 2])
        return {"js": js, "beta": [abs(m_z) / c] if m_z else []}
    if kind == "pm_shift":
        n = s["params"]["n"]
        return {"js": 4 * (n + 0.5) * np.eye(2), "beta": [1 / (2 * n + 1)]}
    if kind == "squeezed":
        return {"abs_det": 4 * math.sinh(2 * theta[2]) ** 2,
                "beta": [1.0, 1.0]}
    if kind == "canonical":
        e = np.array(ENERGIES)
        p = np.exp(-(e - e.min()) / theta[0])
        p /= p.sum()
        heat = p @ (e - p @ e) ** 2 / theta[0] ** 2
        return {"js": np.array([[heat / theta[0] ** 2]]), "beta": []}
    if spec == "explicit3":
        return {"js": np.eye(3), "jtilde": JT3}
    if spec == "mixed":
        # SLDs 0.2 sigma_x, 0.2 sigma_y: J^S = 0.04 I, |J~_12| = 0.016.
        return {"js": 0.04 * np.eye(2), "abs_jtilde12": 0.016, "beta": [0.4]}
    return None


def _cr_js_weight(beta, m):
    """Attainable bound with G = J^S: each +-i pair contributes
    4 / (1 + sqrt(1 - beta^2)), each zero eigenvalue 1."""
    return sum(4.0 / (1.0 + math.sqrt(max(0.0, 1.0 - b * b)))
               for b in beta) + (m - 2 * len(beta))


def _m(spec):
    return len(SPECS[spec]["theta"])


def _floor(spec, theta, weight):
    """SLD floor Tr G J^{S-1} from the closed-form J^S."""
    ref = closed_form(spec, theta)
    if weight == "js":
        return float(_m(spec))
    return float(np.trace(np.linalg.inv(ref["js"])))


def _weight(op):
    argv = list(op.argv)
    return argv[argv.index("--weight") + 1] if "--weight" in argv \
        else "identity"


def _check_geometry(op, rep):
    ref = closed_form(op.spec, op.theta)
    js = np.array(rep["js"])
    jt = np.array(rep["jtilde"])
    if "js" in ref:
        _close(js, ref["js"], 1e-6, "J^S")
    if "jtilde" in ref:
        _close(jt, ref["jtilde"], 1e-6, "Jtilde")
    if "abs_jtilde12" in ref:
        _close(abs(jt[0, 1]), ref["abs_jtilde12"], 1e-6, "|Jtilde_12|")
    if "abs_det" in ref:
        _close(rep["abs_det_js"] / ref["abs_det"], 1.0, 1e-5, "|det J^S|")
        _close(rep["abs_det_jtilde"] / ref["abs_det"], 1.0, 1e-5,
               "|det Jtilde|")
    if "beta" in ref:
        _close(sorted(rep["beta_spectrum"]), sorted(ref["beta"]), 1e-6,
               "beta spectrum")
        if rep["quasi_classical"] != (not ref["beta"]):
            raise CheckError("quasi_classical flag disagrees with beta")


def _check_bound(op, rep):
    weight = _weight(op)
    floor = _floor(op.spec, op.theta, weight)
    ref = closed_form(op.spec, op.theta)
    if rep["method"] == "interval":
        _close(rep["lower"], floor, 1e-6, "interval lower (SLD floor)")
        # Holevo's bound is at most twice the SLD floor; the oracle sits
        # above it by its search error (small budgets in the cli workload).
        ceiling = 2 * floor * (1 + ORACLE_REL_TOL[False])
        if not floor - 1e-9 * max(1.0, floor) <= rep["upper"] <= ceiling:
            raise CheckError(f"interval upper {rep['upper']!r} outside "
                             f"[{floor!r}, {ceiling!r}]")
        return
    if weight != "js" or "beta" not in ref:
        raise CheckError(f"no closed form for {op.key}")
    _close(rep["cr_value"], _cr_js_weight(ref["beta"], _m(op.spec)), 1e-6,
           "cr_value")


def _elements_sum(rep):
    el = np.array(rep["elements"], dtype=float)
    total = (el[..., 0] + 1j * el[..., 1]).sum(axis=0)
    return float(np.max(np.abs(total - np.eye(total.shape[0]))))


def _check_measurement(op, rep):
    _close(rep["risk"], rep["cr_value"], 1e-8, "risk vs cr_value")
    floor = _floor(op.spec, op.theta, _weight(op))
    if rep["cr_value"] < floor - 1e-6 * max(1.0, floor):
        raise CheckError(f"cr_value {rep['cr_value']!r} below the SLD floor "
                         f"{floor!r}")
    dev = _elements_sum(rep)
    if not dev <= 1e-8:
        raise CheckError(f"POVM elements sum to I within {dev:.3e} only")


def _check_oracle(op, rep):
    weight = _weight(op)
    floor = _floor(op.spec, op.theta, weight)
    _close(rep["sld_floor"], floor, 1e-6, "sld_floor")
    value = rep["oracle_value"]
    ref = closed_form(op.spec, op.theta)
    if SPECS[op.spec]["kind"] in ("spin_coherent", "squeezed", "pm_shift") \
            and weight == "js":
        cr = _cr_js_weight(ref["beta"], _m(op.spec))
        _close(rep["cr_value"], cr, 1e-6, "cr_value")
    else:
        cr = floor
    if value < cr - 1e-9 * max(1.0, abs(value)):
        raise CheckError(f"oracle {value!r} undercuts {cr!r}")
    tol = ORACLE_REL_TOL[rep["restarts"] * rep["local_steps"] >= 16000]
    # Where no closed form applies, Holevo's bound is at most twice the floor.
    ceiling = cr if "cr_value" in rep else 2 * floor
    if value > ceiling * (1 + tol):
        raise CheckError(f"oracle {value!r} more than {tol} above {ceiling!r}")


def _check_qmle(op, rep, trials_text):
    _close(rep["cr_value"], 4.0, 1e-9, "cr_value (G = J^S, coherent)")
    rows = trials_text.strip().splitlines()[1:]
    if len(rows) != rep["trials"] - rep["excluded_trials"]:
        raise CheckError("trial rows do not match trials - excluded")
    hats = [float(v) for row in rows for v in row.split(",")[2:]]
    if not all(math.isfinite(v) for v in hats):
        raise CheckError("non-finite theta_hat")
    if not math.isfinite(rep["scaled_risk"]):
        raise CheckError("non-finite scaled risk")


def _check_time_energy(op, rep):
    js = 4 * TE_OMEGA ** 2
    _close(rep["js"], js, 1e-9, "J^S = 4 Var H")
    _close(rep["j_mms"], js, 1e-6, "J_Mms = J^S")
    _close(rep["w"], math.sin(TE_OMEGA * rep["dt"]) ** 2, 1e-12, "w")


def check(op, stdout, trials_text=None):
    """Raise CheckError unless ``stdout`` (text) is a correct result of
    ``op``.  Only called for ops that exited 0."""
    cmd = op.argv[0]
    if cmd == "selftest":
        if not stdout.rstrip().endswith("OK: 0 failing check(s)"):
            raise CheckError("selftest did not pass")
        return
    if cmd == "boundary":
        lines = stdout.strip().splitlines()
        samples = int(op.argv[op.argv.index("--samples") + 1])
        if lines[0] != "beta,x,z,branch" or len(lines) != samples + 3:
            raise CheckError("boundary CSV has the wrong shape")
        vals = [float(v) for ln in lines[1:] for v in ln.split(",")[:3]]
        if not all(math.isfinite(v) for v in vals):
            raise CheckError("non-finite boundary value")
        return
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}")
    if cmd == "geometry":
        _check_geometry(op, rep)
    elif cmd == "bound":
        _check_bound(op, rep)
    elif cmd == "measurement":
        _check_measurement(op, rep)
    elif cmd == "oracle":
        _check_oracle(op, rep)
    elif cmd == "simulate-qmle":
        _check_qmle(op, rep, trials_text or "")
    elif cmd == "time-energy":
        _check_time_energy(op, rep)
    else:
        raise CheckError(f"no check for {cmd}")
