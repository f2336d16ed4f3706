"""Outside-in tracing of qest's layers.

Wraps the public functions listed in ``TRACED`` at every ``qest.*`` module
binding (``from .x import f`` copies the binding, so each copy is replaced),
and wraps ``model.state_at`` by wrapping ``load_model_spec``.  Spans are kept
as per-function aggregates in memory: calls, total and self time (span minus
its child spans), per-call durations, escaping exceptions, and a work count
taken from the call's arguments where one is defined.
"""

import dataclasses
import statistics
import sys
import time

TRACED = {
    "qest.operators": ["hermitian_eigendecomposition",
                       "matrix_exponential_skew", "pure_state"],
    "qest.models": ["load_model_spec", "frame_at", "tangents"],
    "qest.geometry": ["info_geometry"],
    "qest.bounds": ["cr_two_param", "cr_coherent"],
    "qest.measurements": ["optimal_vectors_two_param",
                          "construct_pvm_from_vectors", "naimark_compress",
                          "commuting_sld_estimator"],
    "qest.oracle": ["oracle_min_weighted_variance"],
    "qest.simulate": ["simulate_gqmle"],
    "qest.cli": ["run"],
}


def _cfg_arg(args, kwargs, index):
    return kwargs.get("cfg", args[index] if len(args) > index else None)


def _oracle_proposals(args, kwargs):
    cfg = _cfg_arg(args, kwargs, 3)
    if cfg is None:
        return 64 * 2000    # SearchConfig defaults
    return cfg.restarts * cfg.local_steps


def _qmle_samples(args, kwargs):
    cfg = _cfg_arg(args, kwargs, 3)
    return cfg.n_samples * cfg.trials


# Work done by one call, read from its arguments.
WORK = {
    "oracle.oracle_min_weighted_variance": _oracle_proposals,
    "simulate.simulate_gqmle": _qmle_samples,
}


@dataclasses.dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    work: int = 0
    durations: list = dataclasses.field(default_factory=list)

    def merge(self, other):
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.errors += other.errors
        self.work += other.work
        self.durations.extend(other.durations)


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`; stats
    accumulate across installs."""

    def __init__(self):
        self.stats = {}
        self._stack = []          # child time accumulated per open span
        self._patches = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        work = WORK.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if work is not None:
                stat.work += work(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                stat.durations.append(dt)

        traced.__wrapped__ = fn
        return traced

    def _wrap_loader(self, loader):
        wrap = self._wrap

        def load_model_spec(spec):
            model, theta = loader(spec)
            state_at = wrap("models.state_at", model.state_at)
            return dataclasses.replace(model, state_at=state_at), theta

        return load_model_spec

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for modname, names in TRACED.items():
            mod = sys.modules[modname]
            layer = modname.split(".")[-1]
            for fname in names:
                originals[id(getattr(mod, fname))] = f"{layer}.{fname}"
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "qest" and not modname.startswith("qest."):
                continue
            for attr, value in list(vars(mod).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if id(value) not in wrappers:
                    inner = value
                    if name == "models.load_model_spec":
                        inner = self._wrap_loader(value)
                    wrappers[id(value)] = self._wrap(name, inner)
                self._patches.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    def uninstall(self):
        for mod, attr, value in self._patches:
            setattr(mod, attr, value)
        self._patches = []

    def summary(self):
        """JSON-ready aggregates, with per-call durations and their median."""
        out = {}
        for name, s in self.stats.items():
            out[name] = {"calls": s.calls, "total_s": s.total_s,
                         "self_s": s.self_s, "errors": s.errors,
                         "work": s.work,
                         "p50_s": statistics.median(s.durations)
                         if s.durations else 0.0,
                         "durations": s.durations}
        return out


def merge_summaries(summaries):
    """Combine the summaries of several processes."""
    merged = {}
    for summ in summaries:
        for name, d in summ.items():
            m = merged.setdefault(name, Stat())
            m.merge(Stat(calls=d["calls"], total_s=d["total_s"],
                         self_s=d["self_s"], errors=d["errors"],
                         work=d["work"], durations=list(d["durations"])))
    tracer = Tracer()
    tracer.stats = merged
    return tracer.summary()


def layer_metrics(summary, traced, walls):
    """Per-layer metrics from merged aggregates and the traced op records:
    ``calls``, ``errors`` and counts per op, ``self_ms`` per op, ``p50_us``
    per call."""
    n_ops = len(traced)

    def stat(name, field):
        return summary.get(name, {}).get(field, 0)

    out = {}
    for name, s in summary.items():
        out[f"{name}.calls"] = s["calls"] / n_ops
        out[f"{name}.self_ms"] = 1e3 * s["self_s"] / n_ops
        out[f"{name}.p50_us"] = 1e6 * s["p50_s"]
        out[f"{name}.errors"] = s["errors"] / n_ops
    oracle = "oracle.oracle_min_weighted_variance"
    out["oracle.proposals"] = stat(oracle, "work") / n_ops
    if stat(oracle, "self_s"):
        out["oracle.proposals_per_s"] = (stat(oracle, "work")
                                         / stat(oracle, "self_s"))
    reports = [r["report"] for r in traced if "report" in r]
    gaps = [r["gap_above_bound"] / abs(r["cr_value"]) for r in reports
            if "gap_above_bound" in r]
    if gaps:
        out["oracle.rel_gap"] = statistics.median(gaps)
    qmle = "simulate.simulate_gqmle"
    if stat(qmle, "total_s"):
        out["simulate.samples_per_s"] = (stat(qmle, "work")
                                         / stat(qmle, "total_s"))
    qmle_reports = [r for r in reports if "scaled_risk" in r]
    out["simulate.excluded_trials"] = sum(
        r["excluded_trials"] for r in qmle_reports) / n_ops
    if qmle_reports:
        out["simulate.risk_ratio"] = statistics.median(
            r["scaled_risk"] / r["cr_value"] for r in qmle_reports)
    out["cli.output_bytes"] = sum(r["bytes"] for r in traced) / n_ops
    out["trace.overhead"] = walls["traced"] / walls["untraced"]
    return out
