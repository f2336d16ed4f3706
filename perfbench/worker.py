"""One benchmark process, started by run.py.

Usage: python3 perfbench/worker.py CONFIG_JSON

Roles:
  main   set up the workload (import, specs, one warm-up op per kind), print
         READY, run whole cycles of the workload's rounds for about
         ``seconds``, print RESULT;
  check  verify each distinct op output saved by the main processes against
         the closed forms, print RESULT.

Every op's output bytes are hashed; the first output of each (key, hash) is
saved under the run's scratch directory so the checker can verify it after
the timed phase, outside the measured process.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _emit(tag, payload):
    sys.stdout.write(tag + " " + json.dumps(payload) + "\n")
    sys.stdout.flush()


class InProcessRunner:
    """Runs ``qest.cli.run(argv)`` in this process, capturing its output."""

    def __init__(self):
        t0 = time.perf_counter()
        import qest.cli
        self.import_s = time.perf_counter() - t0
        self.cli = qest.cli

    def run(self, argv, traced):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.run(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:       # a crash of the op, not of the bench
            rc = "exception:" + type(exc).__name__
        dt = time.perf_counter() - t0
        return rc, out.getvalue().encode(), dt


class ChildRunner:
    """Runs each op as a cold ``python -m qest.cli`` process (or, traced,
    through cli_child.py) and waits for it."""

    import_s = None

    def __init__(self, root, scratch):
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.child_traces = []

    def run(self, argv, traced):
        if traced:
            trace_path = os.path.join(self.scratch, "child_trace.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
                   trace_path] + list(argv)
        else:
            cmd = [sys.executable, "-m", "qest.cli"] + list(argv)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=120)
        dt = time.perf_counter() - t0
        if traced:
            with open(trace_path) as fh:
                self.child_traces.append(json.load(fh))
            os.remove(trace_path)
        return proc.returncode, proc.stdout, dt


class Session:
    def __init__(self, cfg):
        from workloads import Plan
        self.cfg = cfg
        self.root = cfg["root"]
        self.scratch = os.path.join(cfg["scratch"], cfg["role_dir"])
        self.out_dir = os.path.join(cfg["scratch"], "outputs")
        os.makedirs(self.scratch, exist_ok=True)
        os.makedirs(self.out_dir, exist_ok=True)
        sys.path.insert(0, os.path.join(self.root, "src"))
        if cfg["workload"] == "cli":
            self.runner = ChildRunner(self.root, self.scratch)
        else:
            self.runner = InProcessRunner()
            self._check_import_origin()
        self.plan = Plan(cfg["workload"], cfg["seed"])
        self.spec_dir = os.path.join(self.scratch, "specs")
        self.plan.write_specs(self.spec_dir)
        self.trials_path = os.path.join(self.scratch, "trials.csv")
        self.tracer = None
        self.records = []

    def _check_import_origin(self):
        import qest
        want = os.path.realpath(os.path.join(self.root, "src", "qest"))
        got = os.path.realpath(os.path.dirname(qest.__file__))
        if got != want:
            raise SystemExit(f"qest imported from {got}, expected {want}")

    def run_op(self, op, phase, traced=False):
        argv = op.resolve(self.spec_dir, self.trials_path)
        rc, stdout, dt = self.runner.run(argv, traced)
        trials = b""
        if op.trials_out and os.path.exists(self.trials_path):
            with open(self.trials_path, "rb") as fh:
                trials = fh.read()
            os.remove(self.trials_path)
        digest = hashlib.sha256(
            f"{rc}\0".encode() + stdout + b"\0" + trials).hexdigest()
        if rc == 0:
            path = os.path.join(self.out_dir, digest)
            if not os.path.exists(path):
                with open(path + ".tmp", "wb") as fh:
                    fh.write(stdout)
                with open(path + ".trials", "wb") as fh:
                    fh.write(trials)
                os.replace(path + ".tmp", path)
        rec = {"key": op.key, "kind": op.kind, "phase": phase,
               "traced": traced, "rc": rc if isinstance(rc, int) else str(rc),
               "hash": digest, "seconds": dt, "bytes": len(stdout) + len(trials)}
        if traced and op.argv[0] in ("oracle", "simulate-qmle") and rc == 0:
            rec["report"] = _small_report(json.loads(stdout))
        self.records.append(rec)
        return dt

    def setup(self):
        for op in self.plan.warmups:
            self.run_op(op, "warmup")

    def timed(self, seconds, trace):
        """Whole cycles of the plan's rounds; with ``trace`` each round runs
        untraced and then traced.  The cli workload's children trace
        themselves."""
        from tracer import Tracer
        if trace and self.cfg["workload"] != "cli":
            self.tracer = Tracer()
        walls = {"untraced": 0.0, "traced": 0.0}
        start = time.perf_counter()
        index = 0
        while True:
            ops = self.plan.round(index)
            for traced in ((False, True) if trace else (False,)):
                if traced and self.tracer is not None:
                    self.tracer.install()
                try:
                    for op in ops:
                        walls["traced" if traced else "untraced"] += \
                            self.run_op(op, "timed", traced)
                finally:
                    if traced and self.tracer is not None:
                        self.tracer.uninstall()
            index += 1
            # Whole cycles of the plan's rounds, so every run holds the same
            # mix of ops and per-op counts repeat exactly; stop at the cycle
            # boundary nearest to ``seconds``.
            cycles, rest = divmod(index, len(self.plan.rounds))
            elapsed = time.perf_counter() - start
            if rest == 0 and elapsed * (1 + 0.5 / cycles) >= seconds:
                break
        return walls


def _small_report(rep):
    keys = ("oracle_value", "cr_value", "gap_above_bound", "scaled_risk",
            "excluded_trials")
    return {k: rep[k] for k in keys if k in rep}


def _blas_threads():
    """(library, threads) for each OpenBLAS loaded in this process."""
    import ctypes
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        if not os.path.isfile(path):
            continue
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads()}


def run_check(cfg):
    """Verify every distinct successful output once."""
    from workloads import CheckError, Plan, check
    ops = Plan(cfg["workload"], cfg["seed"]).ops()
    out_dir = os.path.join(cfg["scratch"], "outputs")
    verdicts = {}
    for key, digest in cfg["outputs"]:
        path = os.path.join(out_dir, digest)
        with open(path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(path + ".trials", encoding="utf-8") as fh:
            trials = fh.read()
        try:
            check(ops[key], stdout, trials)
            verdicts[f"{key} {digest}"] = None
        except (CheckError, KeyError, IndexError, TypeError, ValueError) as exc:
            verdicts[f"{key} {digest}"] = f"{type(exc).__name__}: {exc}"
    _emit("RESULT", {"verdicts": verdicts})


def main():
    cfg = json.loads(sys.argv[1])
    sys.path.insert(0, HERE)
    if cfg["role"] == "check":
        run_check(cfg)
        return
    session = Session(cfg)
    session.setup()
    _emit("READY", {"import_s": session.runner.import_s,
                    "records": session.records})
    session.records = []
    walls = session.timed(cfg["seconds"], cfg["trace"])
    if cfg["workload"] == "cli":
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        traces = session.runner.child_traces
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        traces = []
    result = {"records": session.records, "walls": walls,
              "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "child_import_s": [t["import_s"] for t in traces]}
    if cfg["trace"]:
        from tracer import merge_summaries
        result["layers"] = (merge_summaries(t["layers"] for t in traces)
                            if traces else session.tracer.summary())
    import qest.cli  # noqa: F401  (loads the BLAS the children use)
    result["env"] = _environment()
    _emit("RESULT", result)


if __name__ == "__main__":
    main()
