"""Command-line front end.

Subcommands: geometry, bound, boundary, measurement, oracle, simulate-qmle,
time-energy, selftest.  Model specs are JSON files (see ``load_model_spec``);
weights are "identity", "js" (the model's J^S at theta) or a path to a JSON /
whitespace matrix file.  Exit codes: 0 success, 2 validation error, 3
internal-consistency error.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .operators import ORACLE_SLACK, InternalConsistencyError, ValidationError
from .models import frame_at, load_model_spec
from .geometry import (InfoGeometry, coherency_det_check, info_geometry,
                       rpf_transport)
from .bounds import (WeightMatrix, _refuse_overflowing_weight,
                     attainable_bound, boundary_curve, cr_coherent,
                     cr_two_param)
from .measurements import (
    commuting_sld_estimator,
    construct_pvm_from_vectors,
    naimark_compress,
    optimal_vectors,
)
from .oracle import SearchConfig, oracle_min_weighted_variance, verify_bound
from .simulate import QmleConfig, simulate_gqmle, time_energy_report

__all__ = ["main", "run"]

DEFAULT_SEED = 2024


# ---------------------------------------------------------------- formatting

def _sig(x):
    """9-significant-digit rendering for the text format."""
    return f"{float(x):#.9g}"


def _real_rows(a):
    return np.asarray(a, dtype=float).tolist()


@functools.lru_cache(maxsize=8)
def _json_zeros(shape):
    """The compact JSON text of a zero array of ``shape``, and the offset of
    each part's "0.0" in it as a read-only flat array.  Every block of one
    level has the same length, so an offset is a sum of one term per axis:
    an opening bracket, then the index times the child block's length and
    its comma.  Built from the innermost axis out, one join per axis."""
    text, offsets = "0.0", np.zeros((), dtype=np.intp)
    for n in reversed(shape):
        offsets = np.add.outer(1 + (len(text) + 1) * np.arange(n), offsets)
        text = "".join(["["] + [text, ","] * (n - 1) + [text, "]"])
    offsets = offsets.ravel()
    offsets.flags.writeable = False
    return text, offsets


def _json_floats(a):
    """``json.dumps(a.tolist(), separators=(",", ":"))`` for a float array:
    the parts that do not print as "0.0" are spliced into the JSON of a zero
    array of that shape.  Each distinct magnitude among them is formatted
    once; a zero takes its sign from the sign bit, any other part from
    ``< 0``, so -nan prints as NaN."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0 or a.size == 0:
        return json.dumps(a.tolist(), separators=(",", ":"))
    zeros, offsets = _json_zeros(a.shape)
    flat = a.ravel()
    at = np.flatnonzero((flat != 0) | np.signbit(flat))
    if not at.size:
        return zeros
    vals = flat[at]
    order = np.abs(vals).argsort()     # the special parts by magnitude
    mags = np.abs(vals[order])
    first = np.ones(mags.size, dtype=bool)
    first[1:] = mags[1:] != mags[:-1]
    distinct = json.dumps(mags[first].tolist(),
                          separators=(",", ":"))[1:-1].split(",")
    texts = np.array(distinct + ["-" + t for t in distinct], dtype=object)
    # the zeros left here are all -0.0
    code = np.empty(at.size, dtype=np.intp)
    code[order] = first.cumsum() - 1
    code += len(distinct) * ((vals < 0) | (vals == 0))
    cuts = offsets[at]
    out = [None] * (2 * at.size + 1)
    out[1::2] = texts[code].tolist()
    out[::2] = [zeros[i:j] for i, j in zip(
        [0] + (cuts + 3).tolist(), cuts.tolist() + [len(zeros)])]
    return "".join(out)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(report, out_path):
    """One compact line with sorted keys.  A float array at ``elements`` is
    written by ``_json_floats`` and spliced in.  The JSON is strict: a
    non-finite number raises :class:`InternalConsistencyError`."""
    elements = report.get("elements")
    if elements is not None and not np.isfinite(elements).all():
        raise InternalConsistencyError("non-finite POVM element")
    try:
        text = json.dumps(report if elements is None else
                          {**report, "elements": None}, sort_keys=True,
                          separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise InternalConsistencyError(f"report is not strict JSON: {exc}")
    if elements is not None:
        text = text.replace('"elements":null',
                            '"elements":' + _json_floats(elements), 1)
    _emit(text + "\n", out_path)


def _emit_report(report, fmt, out_path, text_lines):
    if fmt == "json":
        _emit_json(report, out_path)
    else:
        _emit("\n".join(text_lines) + "\n", out_path)


def _matrix_lines(label, a):
    lines = [f"{label}:"]
    for row in np.asarray(a, dtype=float):
        lines.append("  " + "  ".join(_sig(v) for v in row))
    return lines


# ------------------------------------------------------------------- loading

def _load_model(args):
    if not args.model:
        raise ValidationError("--model is required for this subcommand")
    try:
        with open(args.model) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read model spec: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed model spec {args.model}: line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}")
    if args.theta and isinstance(spec, dict):
        spec = dict(spec, theta=args.theta.split(","))
    return load_model_spec(spec)


def _load_weight(spec_str, geom):
    if spec_str == "identity":
        return WeightMatrix.from_matrix(np.eye(geom.m))
    if spec_str == "js":
        return WeightMatrix.from_matrix(geom.JS)
    try:
        with open(spec_str) as fh:
            content = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read weight file: {exc}")
    try:
        rows = json.loads(content)
    except json.JSONDecodeError:   # whitespace matrix; from_matrix parses it
        rows = [line.split() for line in content.splitlines() if line.strip()]
    weight = WeightMatrix.from_matrix(rows)
    if weight.G.shape[0] != geom.m:
        raise ValidationError(
            f"weight is {weight.G.shape[0]}x{weight.G.shape[0]}, model has "
            f"{geom.m} parameters")
    try:
        _refuse_overflowing_weight(geom, weight)
    except ValidationError as exc:
        raise ValidationError(f"weight {spec_str}: {exc}")
    return weight


def _resolve_seed(args):
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    env = os.environ.get("QESTIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"QESTIM_SEED is not an integer: {env!r}")
    return DEFAULT_SEED


# --------------------------------------------------------------- subcommands

def _cmd_geometry(args):
    model, theta = _load_model(args)
    geom = info_geometry(frame_at(model, theta))
    det_ok = coherency_det_check(geom)
    report = {
        "kind": model.kind,
        "m": geom.m,
        "theta": [float(v) for v in theta],
        "js": _real_rows(geom.JS),
        "jtilde": _real_rows(geom.Jtilde),
        "beta_spectrum": [float(b) for b in geom.beta_pairs],
        "n_zero_pairs": geom.n_zero,
        "quasi_classical": geom.quasi_classical,
        "coherent": geom.coherent,
        "det_check_consistent": bool(det_ok),
        "abs_det_js": float(abs(np.linalg.det(geom.JS))),
        "abs_det_jtilde": float(abs(np.linalg.det(geom.Jtilde))),
    }
    lines = [f"model: {model.kind}  (m = {geom.m})",
             "theta: " + "  ".join(_sig(v) for v in theta)]
    lines += _matrix_lines("J^S", geom.JS)
    lines += _matrix_lines("Jtilde", geom.Jtilde)
    lines.append("beta spectrum: "
                 + ("  ".join(_sig(b) for b in geom.beta_pairs) or "(empty)"))
    lines.append(f"quasi-classical: {geom.quasi_classical}")
    lines.append(f"coherent: {geom.coherent}")
    lines.append(f"coherency determinant check: {det_ok}  "
                 f"(|det J^S| = {_sig(report['abs_det_js'])}, "
                 f"|det Jtilde| = {_sig(report['abs_det_jtilde'])})")
    _emit_report(report, args.format, args.out, lines)
    return 0


def _cmd_bound(args):
    model, theta = _load_model(args)
    frame = frame_at(model, theta)
    geom = info_geometry(frame)
    weight = _load_weight(args.weight, geom)
    res = attainable_bound(geom, weight, model.pure)
    if res is None:
        cfg = SearchConfig(restarts=args.restarts, local_steps=args.steps,
                           seed=_resolve_seed(args))
        check = verify_bound(frame, geom, weight, None, cfg=cfg)
        report = {"method": "interval",
                  "lower": check["sld_floor"],
                  "upper": check["oracle_value"],
                  "note": "no closed form in this regime: rigorous "
                          "[sld floor, oracle] interval"}
        lines = [f"method: {report['method']}",
                 f"lower: {_sig(report['lower'])}",
                 f"upper: {_sig(report['upper'])}"]
    else:
        report = {"method": res.method, "cr_value": res.cr_value,
                  "attained": res.attained}
        if res.V_opt is not None:
            report["v_opt"] = _real_rows(res.V_opt)
        if res.note:
            report["note"] = res.note
        lines = [f"method: {res.method}",
                 f"{_sig(res.cr_value)}",
                 f"attained: {res.attained}"]
    _emit_report(report, args.format, args.out, lines)
    return 0


def _cmd_boundary(args):
    rows = boundary_curve(args.beta, samples=args.samples,
                          x_range=args.x_range)
    if args.format == "json":
        report = {"beta": float(args.beta),
                  "rows": [{"x": x, "z": z, "branch": b} for x, z, b in rows]}
        _emit_json(report, args.out)
    else:
        lines = ["beta,x,z,branch"]
        lines += [f"{float(args.beta)!r},{x!r},{z!r},{b}" for x, z, b in rows]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_measurement(args):
    # the construction draws no random numbers; a given seed is still checked
    _resolve_seed(args)
    model, theta = _load_model(args)
    frame = frame_at(model, theta)
    geom = info_geometry(frame)
    weight = _load_weight(args.weight, geom)
    bound = attainable_bound(geom, weight, model.pure)
    method = bound.method if bound is not None else None

    if method == "sld" and not model.pure:
        pvm = commuting_sld_estimator(frame, geom)
        elements = pvm.projectors
        name, cov = "commuting_slds", bound.V_opt
    elif method is not None and model.pure:
        vectors, basis = optimal_vectors(frame, bound)
        pvm = construct_pvm_from_vectors(vectors)
        elements, _ = naimark_compress(pvm, basis)
        name, cov = method, pvm.meta["covariance"].real
    else:
        raise ValidationError(
            "optimal measurement construction covers quasi-classical models "
            "and 2-parameter or coherent pure models; other pure models wait "
            "for a Holevo-bound optimizer")
    report = {
        "method": name,
        "risk": float(np.trace(weight.G @ cov)),
        "cr_value": bound.cr_value,
        "n_outcomes": len(pvm.projectors),
        "estimates": [[float(v) for v in e] for e in pvm.estimates],
        "covariance": _real_rows(cov),
    }
    if args.format == "json":
        pairs = np.ascontiguousarray(elements, dtype=complex)
        report["elements"] = pairs.view(float).reshape(*pairs.shape, 2)
    lines = [f"method: {report['method']}",
             f"outcomes: {report['n_outcomes']}",
             f"risk Tr G V: {_sig(report['risk'])}",
             f"bound value: {_sig(report['cr_value'])}"]
    lines += _matrix_lines("covariance", report["covariance"])
    for k, e in enumerate(elements if args.include_elements else []):
        lines += _matrix_lines(f"element {k} real", np.real(e))
        lines += _matrix_lines(f"element {k} imag", np.imag(e))
    _emit_report(report, args.format, args.out, lines)
    return 0


def _cmd_oracle(args):
    model, theta = _load_model(args)
    frame = frame_at(model, theta)
    geom = info_geometry(frame)
    weight = _load_weight(args.weight, geom)
    seed = _resolve_seed(args)
    cfg = SearchConfig(restarts=args.restarts, local_steps=args.steps,
                       seed=seed, dilate_dim=args.dilate_dim)
    check = verify_bound(frame, geom, weight,
                         attainable_bound(geom, weight, model.pure), cfg=cfg)
    report = {
        "oracle_value": check["oracle_value"],
        "sld_floor": check["sld_floor"],
        "restarts": cfg.restarts,
        "local_steps": cfg.local_steps,
        "seed": seed,
        "dilate_dim": cfg.resolved_dim(geom.m),
        "singular_fraction": float(check["result"].singular_fraction),
    }
    if "cr_value" in check:
        report["cr_value"] = check["cr_value"]
        report["gap_above_bound"] = check["gap_above"]
    lines = [f"oracle value: {_sig(report['oracle_value'])}",
             f"sld floor:    {_sig(report['sld_floor'])}"]
    if "cr_value" in report:
        lines.append(f"closed form:  {_sig(report['cr_value'])}")
        lines.append(f"gap above:    {_sig(report['gap_above_bound'])}")
    _emit_report(report, args.format, args.out, lines)
    return 0


def _cmd_simulate_qmle(args):
    model, theta = _load_model(args)
    geom = info_geometry(frame_at(model, theta))
    weight = _load_weight(args.weight, geom)
    cfg = QmleConfig(n_samples=args.samples, trials=args.trials,
                     seed=_resolve_seed(args), reopt_every=args.reopt_every,
                     fixed_measurement=args.fixed_measurement)
    res = simulate_gqmle(model, theta, weight, cfg)
    report = {
        "n_samples": cfg.n_samples,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "reopt_every": cfg.reopt_every,
        "fixed_measurement": cfg.fixed_measurement,
        "scaled_risk": float(res.scaled_risk),
        "cr_value": float(res.cr_value),
        "excluded_trials": int(res.excluded_trials),
        "mse": _real_rows(res.mse),
    }
    if args.format == "csv" or args.trials_out:
        header = "trial,n," + ",".join(f"theta_hat_{i + 1}"
                                       for i in range(model.m))
        rows = [header]
        kept = sorted(set(range(cfg.trials)).difference(dict(res.exclusions)))
        for t, hat in zip(kept, res.theta_hats):
            rows.append(f"{t},{cfg.n_samples},"
                        + ",".join(repr(float(v)) for v in hat))
        csv_text = "\n".join(rows) + "\n"
        if args.trials_out:
            with open(args.trials_out, "w") as fh:
                fh.write(csv_text)
        if args.format == "csv":
            _emit(csv_text, args.out)
            return 0
    lines = [f"N = {cfg.n_samples}, trials = {cfg.trials} "
             f"(excluded: {res.excluded_trials})",
             f"scaled risk N Tr G MSE: {_sig(res.scaled_risk)}",
             f"bound value:            {_sig(res.cr_value)}"]
    _emit_report(report, args.format, args.out, lines)
    return 0


def _cmd_time_energy(args):
    model, theta = _load_model(args)
    if model.kind != "time_evolution":
        raise ValidationError(
            "time-energy requires a model spec of kind 'time_evolution'")
    t0 = args.t0 if args.t0 is not None else float(theta[0])
    if not np.isfinite(t0):
        raise ValidationError(f"t0 must be finite, got {t0}")
    rep = time_energy_report(model.meta["h"], model.meta["psi0"], args.dt,
                             args.n, hbar=model.hbar)
    report = {
        "t0": float(t0), "dt": rep.dt, "n": rep.n,
        "w": rep.w,
        "stein_exponent": rep.stein_exponent,
        "power_approx": rep.power_approx,
        "js": rep.js,
        "j_mms": rep.j_mms,
        "quadratic_regime": rep.quadratic_regime,
        "w_ratio": None if math.isnan(rep.w_ratio) else rep.w_ratio,
    }
    lines = [f"escape probability w:   {_sig(rep.w)}",
             f"Stein exponent:         {_sig(rep.stein_exponent)}",
             f"power (N = {rep.n}):      {_sig(rep.power_approx)}",
             f"J^S = 4<dH^2>/hbar^2:   {_sig(rep.js)}",
             f"J of survival PVM:      {_sig(rep.j_mms)}",
             f"quadratic regime:       {rep.quadratic_regime}",
             f"w / quadratic approx:   {_sig(rep.w_ratio)}"]
    _emit_report(report, args.format, args.out, lines)
    return 0


# ------------------------------------------------------------------ selftest

def _selftest_checks():
    """Fast consistency battery; yields (name, passed, detail)."""
    from .models import (zoo_canonical, zoo_pm_shift, zoo_spin_coherent,
                         zoo_squeezed)
    from .bounds import cr_general_js

    # spin-coherent closed forms
    rng = np.random.default_rng(11)
    ok, worst = True, 0.0
    for s, m_z in [(0.5, 0.5), (1.0, 0.0), (1.5, 0.5)]:
        model = zoo_spin_coherent(s, m_z)
        coeff = s * s + s - m_z * m_z
        for _ in range(3):
            th = np.array([rng.uniform(0.4, 2.6), rng.uniform(0.0, 6.2)])
            geom = info_geometry(frame_at(model, th))
            ref = 2.0 * coeff * np.diag([1.0, np.sin(th[0]) ** 2])
            dev = np.max(np.abs(geom.JS - ref)) / max(np.max(np.abs(ref)), 1)
            worst = max(worst, dev)
            if coeff > 0 and abs(m_z) > 1e-12:
                worst = max(worst,
                            abs(geom.beta_pairs[0] - abs(m_z) / coeff))
    ok = worst < 1e-6
    yield "spin-coherent J^S and beta closed forms", ok, f"max dev {worst:.2e}"

    # minvv self-consistency across beta
    worst = 0.0
    for beta in np.linspace(0.0, 1.0, 11):
        target = 4.0 / (1.0 + np.sqrt(1.0 - beta**2))
        jt = np.array([[0.0, -beta], [beta, 0.0]])
        geom = InfoGeometry(JS=np.eye(2), Jtilde=jt)
        val = cr_two_param(geom, WeightMatrix.from_matrix(np.eye(2))).cr_value
        gen = cr_general_js(geom).cr_value
        worst = max(worst, abs(val - target), abs(gen - target))
    ok = worst < 1e-10
    yield "normalized-variance closed form consistency", ok, \
        f"max dev {worst:.2e}"

    # coherent cross-check value 9
    jt = np.array([[0.0, -1.0], [1.0, 0.0]])
    geom = InfoGeometry(JS=np.eye(2), Jtilde=jt)
    w = WeightMatrix.from_matrix(np.diag([1.0, 4.0]))
    v1 = cr_two_param(geom, w).cr_value
    v2 = cr_coherent(geom, w).cr_value
    ok = abs(v1 - 9.0) < 1e-8 and abs(v2 - 9.0) < 1e-8
    yield "coherent cross-check (value 9)", ok, f"{v1:.12g} / {v2:.12g}"

    # shifted oscillator
    model = zoo_pm_shift(1, trunc_dim=96)
    geom = info_geometry(frame_at(model, np.array([0.2, -0.1])))
    ok = (abs(geom.beta_pairs[0] - 1.0 / 3.0) < 1e-6
          and np.max(np.abs(geom.JS - 6.0 * np.eye(2))) < 1e-5)
    yield "shifted oscillator beta = 1/(2n+1)", ok, \
        f"beta {geom.beta_pairs[0]:.9g}"

    # squeezed determinant identity
    model = zoo_squeezed(trunc_dim=64)
    th = np.array([0.1, -0.05, 0.3, 0.2])
    geom = info_geometry(frame_at(model, th))
    target = 4.0 * np.sinh(2 * th[2]) ** 2
    dev = max(abs(abs(np.linalg.det(geom.JS)) - target),
              abs(abs(np.linalg.det(geom.Jtilde)) - target)) / target
    ok = dev < 1e-5 and geom.coherent
    yield "squeezed determinant identity", ok, f"rel dev {dev:.2e}"

    # canonical-family thermal identity
    energies = [0.0, 0.7, 1.3]
    model = zoo_canonical(energies)
    worst = 0.0
    for temp in [0.5, 1.0, 2.0]:
        geom = info_geometry(frame_at(model, np.array([temp])))
        worst = max(worst, abs(geom.JS[0, 0] - model.meta["js"](temp)))
    ok = worst < 1e-8
    yield "canonical family J^S = C/(k_B T^2)", ok, f"max dev {worst:.2e}"

    # time-energy equality
    hmat = 0.5 * 1.3 * np.array([[0.0, 1.0], [1.0, 0.0]])
    rep = time_energy_report(hmat, np.array([1.0, 0.0]), 0.05, 100)
    ok = abs(rep.j_mms - rep.js) < 1e-8
    yield "time-energy J_Mms = J^S", ok, \
        f"dev {abs(rep.j_mms - rep.js):.2e}"

    # small oracle run against the closed form
    model = zoo_spin_coherent(0.5, 0.5)
    th = np.array([np.pi / 3, np.pi / 4])
    frame = frame_at(model, th)
    cfg = SearchConfig(restarts=8, local_steps=600, seed=2024)
    res = oracle_min_weighted_variance(frame, info_geometry(frame).JS,
                                       cfg=cfg)
    ok = 4.0 - ORACLE_SLACK <= res.best_value <= 4.2
    yield "oracle vs closed form on the spin model", ok, \
        f"value {res.best_value:.9g}"

    # Stokes on the same model, with a second-order error
    c = np.array([1.1, 0.6])
    dev = []
    for eps in (0.04, 0.02):
        square = [c, c + [eps, 0], c + [eps, eps], c + [0, eps], c]
        phase = rpf_transport(model, square, steps_per_edge=60)[1]
        jt = info_geometry(frame_at(model, c + eps / 2)).Jtilde[0, 1]
        dev.append(abs(phase / eps**2 + jt / 2))
    ok = dev[1] <= 1e-4 and dev[1] <= 0.35 * dev[0]
    yield "Berry phase of a small loop = -area*Jtilde_12/2", ok, \
        f"dev {dev[1]:.2e}, ratio {dev[1] / dev[0]:.2f}"


def _cmd_selftest(args):
    failures = 0
    lines = []
    for name, ok, detail in _selftest_checks():
        status = "PASS" if ok else "FAIL"
        lines.append(f"{status}  {name}  ({detail})")
        failures += 0 if ok else 1
    lines.append(f"{'OK' if failures == 0 else 'FAILED'}: "
                 f"{failures} failing check(s)")
    _emit("\n".join(lines) + "\n", args.out)
    if failures:
        raise InternalConsistencyError(f"{failures} selftest check(s) failed")
    return 0


# -------------------------------------------------------------------- parser

def _add_common(sub, model=True, weight=True, formats=("text", "json")):
    if model:
        sub.add_argument("--model", help="path to a JSON model spec")
        sub.add_argument("--theta", help="comma-separated parameter override")
    if weight:
        sub.add_argument("--weight", default="identity",
                         help="identity | js | path to a matrix file")
    sub.add_argument("--seed", type=int, default=None,
                     help="RNG seed (fallback: env QESTIM_SEED, then 2024)")
    sub.add_argument("--format", choices=formats, default="text")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="qest",
        description="quantum estimation toolkit: information geometry, "
                    "attainable bounds, optimal measurements")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("geometry", help="J^S, Jtilde, beta spectrum")
    _add_common(p, weight=False)
    p.set_defaults(func=_cmd_geometry)

    p = subs.add_parser("bound", help="attainable CR-type bound")
    _add_common(p)
    p.add_argument("--restarts", type=int, default=16,
                   help="oracle restarts for the interval fallback")
    p.add_argument("--steps", type=int, default=1000,
                   help="oracle local steps for the interval fallback")
    p.set_defaults(func=_cmd_bound)

    p = subs.add_parser("boundary",
                        help="achievable-region boundary curve (CSV)")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--x-range", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_boundary)

    p = subs.add_parser("measurement", help="optimal PVM construction")
    _add_common(p)
    p.add_argument("--include-elements", action="store_true",
                   help="include POVM element matrices in text output")
    p.set_defaults(func=_cmd_measurement)

    p = subs.add_parser("oracle", help="stochastic measurement search")
    _add_common(p)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--dilate-dim", type=int, default=None,
                   help="search dimension (default 2m+1; larger values probe "
                        "the dilation-size conjecture)")
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("simulate-qmle",
                        help="adaptive quantum MLE Monte Carlo")
    _add_common(p, formats=("text", "json", "csv"))
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--reopt-every", type=int, default=1)
    p.add_argument("--fixed-measurement", action="store_true")
    p.add_argument("--trials-out", default=None,
                   help="write the per-trial CSV here as well")
    p.set_defaults(func=_cmd_simulate_qmle)

    p = subs.add_parser("time-energy",
                        help="time-evolution detectability report")
    _add_common(p, weight=False)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_time_energy)

    p = subs.add_parser("selftest", help="fast consistency battery")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
