"""Benchmark runner: one workload per invocation, one repetition at a time.

    python3 perfbench/run.py --workload tilted_2d --seed 0 --seconds 55 \
        --trace 0

Untraced (`--trace 0`): starts `worker.py --serve`, which imports numpy,
scipy and metastab once and forks a fresh child per repetition, and runs
repetitions one after another until the next would end past `--seconds`
(at least one).  It reports the end-to-end metrics over them:

  wall_s       end of set-up until every output exists (mean over
               repetitions)
  setup_s      process spawn until the pipeline is constructed: the
               server's first repetition plus fresh set-up-only processes,
               median of SETUPS
  cpu_s        user + system CPU of the repetition's process over the
               wall_s span (mean over repetitions)
  peak_rss_mb  ru_maxrss of the repetition's process (median over
               repetitions)

wall_s and cpu_s are means because the repetitions of one invocation use
different seeds, so their work differs (the slowest of 2000 Langevin paths
sets the step count): the mean estimates the expected time to a solution.
The record keeps every sample with its median and quartiles.

Traced (`--trace 1`): runs (untraced, traced) pairs on the same seeds and
reports the per-layer metrics of tracing.py from the traced run plus the
tracing overhead (traced minus untraced wall_s), as medians over pairs.

Repetition i passes seed_i to `metastab all --seed` and nowhere else:
seed_0 is `--seed`, later ones are drawn from random.Random(seed).  Every
repetition's outputs are checked; the last stdout line is the JSON result
with `attempted`/`failed` counting output checks.  A full record (machine,
versions, exact commands, every sample and check) goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS
from worker import RESULT
from workloads import HERE, ROOT, WORKLOADS

WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")
SETUPS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}
MEAN_OF = ("wall_s", "cpu_s")
TRACE_METRICS = {"trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
                 "trace.overhead_s": "s", "trace.spans": "count"}


class BenchError(RuntimeError):
    pass


def iteration_seeds(seed):
    yield seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


class Server:
    """`worker.py --serve` for one workload: one repetition per request,
    each in a child it forks.  It runs in a session of its own, so that
    stopping it on an error also stops a child that hangs."""

    def __init__(self, workload):
        self.workload = workload
        self.stderr = open(os.path.join(WORK, f"{workload}.stderr"), "w+b")
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "--workload", workload, "--serve"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.stderr, start_new_session=True)
        self.buffer = b""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                exc_type = True
        if exc_type is not None:
            self._kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()

    def _kill(self):
        """SIGKILL the server's session and wait until all of it is gone."""
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            self.proc.poll()
            time.sleep(0.05)

    def request(self, seed, mode, tag, spans=None):
        out = os.path.join(WORK, tag)
        line = json.dumps({"seed": seed, "mode": mode, "spans": spans,
                           "out": os.path.relpath(out, ROOT)})
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
            result = json.loads(self._result_line())
        except BrokenPipeError as exc:
            raise BenchError(f"{self.workload} server exited:\n"
                             f"{self._stderr_tail()}") from exc
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if "error" in result:
            raise BenchError(f"{self.workload} {mode} seed {seed} failed: "
                             f"{result['error']}\n{self._stderr_tail()}")
        result["seed"] = seed
        return result

    def _result_line(self):
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        while True:
            while b"\n" in self.buffer:
                line, self.buffer = self.buffer.split(b"\n", 1)
                if line.startswith(RESULT.encode()):
                    return line[len(RESULT):].decode()
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [],
                                                   remaining)[0]:
                raise BenchError(f"{self.workload} repetition exceeded "
                                 f"{CHILD_TIMEOUT_S} s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError(f"{self.workload} server exited:\n"
                                 f"{self._stderr_tail()}")
            self.buffer += chunk

    def _stderr_tail(self):
        self.stderr.flush()
        self.stderr.seek(0)
        return self.stderr.read().decode(errors="replace")[-3000:]


def spawn_setup(workload, seed, tag):
    """One fresh process up to the set-up end mark; returns `setup_s`."""
    out = os.path.join(WORK, tag)
    cmd = [sys.executable, WORKER, "--workload", workload, "--setup",
           "--seed", str(seed), "--out", os.path.relpath(out, ROOT)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} set-up exceeded {CHILD_TIMEOUT_S} s"
                         ) from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} set-up failed (exit "
                         f"{proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])["setup_end"] - t_spawn


def repetitions(seed, seconds, t0):
    """Yield (i, seed_i) until the next repetition, at the mean duration
    of those so far, would end more than `seconds` after t0."""
    first = None
    for i, s in enumerate(iteration_seeds(seed)):
        now = time.monotonic()
        if first is None:
            first = now
        elif now + (now - first) / i > t0 + seconds:
            return
        yield i, s


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(samples, units, means=()):
    """name -> {value, stat, unit, n, median, q1, q3, samples}; value is
    the mean for names in `means`, else the median."""
    out = {}
    for name, unit in units.items():
        values = samples[name]
        q1, q3 = quartiles(values)
        median = statistics.median(values)
        stat = "mean" if name in means else "median"
        out[name] = {"value": statistics.fmean(values) if name in means
                     else median, "stat": stat, "unit": unit,
                     "n": len(values), "median": median, "q1": q1, "q3": q3,
                     "samples": values}
    return out


def run_untraced(workload, seed, seconds):
    t0 = time.monotonic()
    runs = []
    with Server(workload) as server:
        for i, s in repetitions(seed, seconds, t0):
            runs.append(server.request(s, "run", f"{workload}-{seed}-{i}"))
    setups = [runs[0]["setup_end"] - server.started]
    while len(setups) < SETUPS:
        setups.append(spawn_setup(workload, seed,
                                  f"{workload}-{seed}-setup{len(setups)}"))
    samples = {name: [r[name] for r in runs]
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    return runs, summarize(samples, END_TO_END, means=MEAN_OF)


def run_traced(workload, seed, seconds):
    os.makedirs(RESULTS, exist_ok=True)
    t0 = time.monotonic()
    runs = []
    pairs = []
    with Server(workload) as server:
        for i, s in repetitions(seed, seconds, t0):
            plain = server.request(s, "run", f"{workload}-{seed}-{i}")
            spans = os.path.join(RESULTS, f"{workload}-seed{seed}-pair{i}"
                                          ".spans.json")
            traced = server.request(s, "trace", f"{workload}-{seed}-{i}t",
                                    spans=os.path.relpath(spans, ROOT))
            runs += [plain, traced]
            pairs.append({**traced["layers"],
                          "trace.untraced_wall_s": plain["wall_s"],
                          "trace.traced_wall_s": traced["wall_s"],
                          "trace.overhead_s":
                              traced["wall_s"] - plain["wall_s"],
                          "trace.spans": traced["spans"]})
    units = {**LAYER_METRICS, **TRACE_METRICS}
    samples = {name: [p[name] for p in pairs] for name in units}
    return runs, summarize(samples, units)


# ---------------------------------------------------------------------------
# Machine and version record


def _openblas_libraries():
    """Config string and runtime thread count of each loaded OpenBLAS."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    libs = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                except AttributeError:
                    continue
                config.restype = ctypes.c_char_p
                entry["config"] = config().decode()
                entry["threads"] = threads()
        libs.append(entry)
    return libs


def _git_rev():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_info():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_libraries(),
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "ckdtree_workers": "-1 (all cores, as metastab.sublevel calls it)",
        "git_rev": _git_rev(),
    }


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    needed = [os.path.join("src", "metastab", "__init__.py")]
    needed += workload.required_files()
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.trace:
            runs, metrics = run_traced(args.workload, args.seed, args.seconds)
        else:
            runs, metrics = run_untraced(args.workload, args.seed,
                                         args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    checks = [c for r in runs for c in r["checks"]]
    failed = [c for c in checks if not c[1]]
    findings = [f for r in runs for f in r["findings"]]
    machine = machine_info()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commands": [workload.command(r["seed"], "<out>") for r in runs],
        "machine": machine, "metrics": metrics,
        "checks_attempted": len(checks), "checks_failed": failed,
        "findings": findings,
        "runs": [{k: v for k, v in r.items() if k != "layers"}
                 for r in runs],
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(runs)} runs, seeds "
          f"{sorted({r['seed'] for r in runs})}")
    print(f"command: {record['commands'][0]}")
    for name, m in metrics.items():
        median = f"median {m['median']:.6g}, " if m["stat"] == "mean" else ""
        print(f"{name:40s} {m['value']:14.6g} {m['unit']:8s} "
              f"({m['stat']} of {m['n']}; {median}q1 {m['q1']:.6g}, "
              f"q3 {m['q3']:.6g})")
    print(f"checks_failed {len(failed)} of {len(checks)} attempted (count)")
    for name, ok, detail in failed:
        print(f"  FAILED {name}: {detail}")
    for name in sorted({f[0] for f in findings}):
        same = [f for f in findings if f[0] == name]
        print(f"finding (not gating): {name} fails in "
              f"{sum(not f[1] for f in same)} of {len(same)} runs; "
              + "; ".join(f[2] for f in same))
    print(f"machine: {json.dumps(machine)}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not failed, "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
