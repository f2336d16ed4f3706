"""qest benchmark.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload {cli,sweep,oracle,qmle} \
        --seed N --seconds S --trace {0,1}

Load shape: one client in a closed loop, one op at a time; the cli workload
runs one child process at a time.  BLAS threading is left at the
interpreter default and recorded, not pinned.

A run starts three fresh worker processes, one after another.  Each sets up
(import, spec generation, one warm-up op per kind; setup_s is the median of
the three) and then runs whole cycles of the workload's ops for a third of
``--seconds``, so every op runs in every process.  Every op's output is
hashed, and repeats of an op must match within and across processes; every
distinct output is then checked against closed forms by a separate process.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  A failed op is one that exits nonzero, raises,
fails its check or repeats with different bytes; ``correct`` is false when
any op returned wrong or non-identical output.  Lines before it, starting
with ``#``, record the environment and a per-kind latency table.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from tracer import layer_metrics, merge_summaries  # noqa: E402

# Fresh processes per run.  Each sets up (one set-up sample) and then runs
# its share of the timed phase, so each op runs in every process and its
# latency, the fastest of its runs, does not hang on one process's luck.
PROCESSES = 3
DEADLINE_S = 170.0
SCRATCH = ".perfbench_run"


class BenchError(Exception):
    pass


class Watchdog:
    """Kills the current child once the run's deadline has passed."""

    def __init__(self, seconds):
        self.proc = None
        self.fired = False
        self._timer = threading.Timer(seconds, self._fire)
        self._timer.daemon = True
        self._timer.start()

    def _fire(self):
        self.fired = True
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()

    def cancel(self):
        self._timer.cancel()


def _worker(cfg, watchdog):
    """Start worker.py; return (seconds until READY, READY payload, RESULT
    payload)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog.proc = proc
    ready_s, payloads = None, {}
    try:
        for line in proc.stdout:
            tag, _, body = line.partition(" ")
            if tag == "READY":
                ready_s = time.perf_counter() - t0
            if tag in ("READY", "RESULT"):
                payloads[tag] = json.loads(body)
    finally:
        proc.stdout.close()
        rc = proc.wait()
        watchdog.proc = None
    if watchdog.fired:
        raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
    if rc != 0:
        raise BenchError(f"worker ({cfg['role']}) exited with {rc}")
    return ready_s, payloads.get("READY"), payloads.get("RESULT")


def _calibration_ms():
    """A fixed pure-Python loop, to tell machine drift from program change."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def _quantile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(100 * q) - 1]


def _classify(records, verdicts):
    """Mark each record ok / crashed / wrong.  An op is wrong when its output
    fails its check or differs from the first output of the same op."""
    first = {}
    for rec in records:
        first.setdefault(rec["key"], rec["hash"])
    for rec in records:
        if rec["hash"] != first[rec["key"]]:
            rec["status"] = "wrong"
            rec["why"] = "output differs from an earlier run of the same op"
        elif rec["rc"] != 0:
            rec["status"] = "crashed"
            rec["why"] = f"exit {rec['rc']}"
        elif verdicts.get(f"{rec['key']} {rec['hash']}"):
            rec["status"] = "wrong"
            rec["why"] = verdicts[f"{rec['key']} {rec['hash']}"]
        else:
            rec["status"] = "ok"


def _fastest(records):
    """Fastest run of each op (by key) among ``records``."""
    best = {}
    for rec in records:
        best[rec["key"]] = min(best.get(rec["key"], rec["seconds"]),
                               rec["seconds"])
    return best


def _end_to_end(untraced, setup_s, peak_rss_mb):
    """Each op's latency is the fastest of its runs in the timed phase (as
    timeit advises: slower runs measure other processes on the shared
    machine, not the program).  The percentiles are over successful ops;
    ops_per_s is successful runs per second of all runs taken at their op's
    latency."""
    ok = [r for r in untraced if r["status"] == "ok"]
    latency = list(_fastest(ok).values())
    best = _fastest(untraced)
    values = {
        "ops_per_s": len(ok) / sum(best[r["key"]] for r in untraced),
        "op_p50_ms": 1e3 * statistics.median(latency),
        "op_p90_ms": 1e3 * _quantile(latency, 0.9),
        "success_rate": len(ok) / len(untraced),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END}


def _summary_lines(workload, timed, setup_s, walls):
    """Human-readable per-kind latency table (not the result line)."""
    untraced = [r for r in timed if not r["traced"]]
    ok = sum(1 for r in untraced if r["status"] == "ok")
    lines = [f"# workload {workload}: setup_s samples "
             + ", ".join(f"{s:.3f}" for s in setup_s)
             + f"; {ok} successful runs of {len(_fastest(untraced))} ops in "
             f"{walls['untraced']:.2f} s of op wall time "
             f"({ok / walls['untraced']:.4g} runs/s)"]
    kinds = {}
    for rec in timed:
        if not rec["traced"]:
            kinds.setdefault(rec["kind"], []).append(rec)
    for kind, recs in sorted(kinds.items()):
        ok = [1e3 * r["seconds"] for r in recs if r["status"] == "ok"]
        spread = f"{min(ok):.1f} / {statistics.median(ok):.1f} / " \
            f"{max(ok):.1f} ms" if ok else "-"
        lines.append(f"#   {kind:14s} attempted {len(recs):4d}  failed "
                     f"{len(recs) - len(ok):3d}  min/median/max {spread}")
    failed = {}
    for rec in untraced:
        if rec["status"] != "ok":
            failed.setdefault((rec["key"], rec["why"]), []).append(rec)
    for (key, why), recs in failed.items():
        lines.append(f"#   failed {len(recs)}x {key}: {why}")
    return lines


def bench(args):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qest", "cli.py")):
        raise BenchError("no qest sources under ./src: run from the root of "
                         "a qest checkout")
    scratch = os.path.join(root, SCRATCH)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "loadavg_start": os.getloadavg(),
           "calibration_ms": _calibration_ms()}
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)

    watchdog = Watchdog(DEADLINE_S)
    try:
        base = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds / PROCESSES, "trace": bool(args.trace),
                "root": root, "scratch": scratch}
        setup_s, import_s, records, timed, results = [], [], [], [], []
        for i in range(PROCESSES):
            ready_s, ready, result = _worker(
                dict(base, role="main", role_dir=f"p{i}"), watchdog)
            setup_s.append(ready_s)
            if ready["import_s"] is not None:
                import_s.append(ready["import_s"])
            import_s += result["child_import_s"]
            records += ready["records"] + result["records"]
            timed += result["records"]
            results.append(result)
        outputs = sorted({(r["key"], r["hash"]) for r in records
                          if r["rc"] == 0})
        _, _, checked = _worker(dict(base, role="check", outputs=outputs),
                                watchdog)
    finally:
        watchdog.cancel()
        shutil.rmtree(scratch, ignore_errors=True)

    walls = {k: sum(r["walls"][k] for r in results)
             for k in ("untraced", "traced")}
    _classify(records, checked["verdicts"])
    env.update(results[-1]["env"], loadavg_end=os.getloadavg())
    print("# env " + json.dumps(env, sort_keys=True))
    for line in _summary_lines(args.workload, timed, setup_s, walls):
        print(line)
    counted = [r for r in timed if not r["traced"]]
    failed = sum(1 for r in counted if r["status"] != "ok")
    correct = all(r["status"] != "wrong" for r in records)
    if args.trace:
        summary = merge_summaries(r["layers"] for r in results)
        values = layer_metrics(summary, [r for r in timed if r["traced"]],
                               walls)
        values["cli.import_ms"] = 1e3 * statistics.median(import_s)
        metrics = {name: {"value": float(values.get(name, 0.0)),
                          "unit": unit} for name, unit, *_ in PER_LAYER}
    else:
        metrics = _end_to_end(counted, setup_s,
                              max(r["peak_rss_mb"] for r in results))
    print(json.dumps({"correct": correct, "attempted": len(counted),
                      "failed": failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
