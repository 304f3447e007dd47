"""Repetitions of one workload, each in a process of its own.

    python3 perfbench/worker.py --workload W --serve
    python3 perfbench/worker.py --workload W --seed N --out DIR --setup

`--serve` imports numpy, scipy and metastab once, then reads one JSON
request per stdin line, `{"seed", "out", "mode": "run"|"trace", "spans"}`,
and forks a fresh child for it.  The child runs the workload once (`trace`
installs the span wrappers first and writes the spans to `spans` once, at
the end), checks its outputs and exits; the server answers with one stdout
line `RESULT <json>`: the set-up end mark on the system-wide monotonic
clock, wall and CPU time of the work, the child's peak RSS and the output
checks.  Every repetition so starts from the same freshly imported state
and none inherits anything from an earlier one, without paying the
interpreter start and imports again.  The server's only other threads are
OpenBLAS's pools, which OpenBLAS stops before a fork (pthread_atfork) and
restarts in the child on first use.  The server exits at end of input.

`--setup` is a fresh process that stops at the set-up end mark and prints
it as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback

from workloads import ROOT, WORKLOADS, Timing

RESULT = "RESULT "


def import_metastab():
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import metastab

    src = os.path.join(ROOT, "src", "metastab")
    if os.path.dirname(os.path.abspath(metastab.__file__)) != src:
        raise SystemExit(f"metastab imported from {metastab.__file__}, "
                         f"not from {src}")


def repetition(workload, request):
    """Run one repetition in this (forked) process; returns its result."""
    timing = Timing()
    install = tracer = None
    if request["mode"] == "trace":
        import tracing

        tracer = tracing.Tracer()
        install = lambda: tracing.install(tracer)
    outputs = workload.execute(request["seed"], request["out"], timing,
                               install=install)
    checks, findings = workload.check(outputs)
    result = {"setup_end": timing.setup_end, "wall_s": timing.wall_s,
              "cpu_s": timing.cpu_s, "checks": checks, "findings": findings}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.summary())
        result["spans"] = len(tracer.spans)
        if request.get("spans"):
            with open(request["spans"], "w") as fh:
                json.dump(tracer.spans, fh)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


def fork_repetition(workload, request):
    """Fork a child for one repetition and wait for it; returns the
    child's result, or an `error` entry if it failed."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The child reports to the parent and never returns into the loop.
        code, payload = 1, ""
        try:
            os.close(read_fd)
            payload = json.dumps(repetition(workload, request))
            code = 0
        except Exception:
            payload = json.dumps({"error": traceback.format_exc()[-3000:]})
        finally:
            try:
                with os.fdopen(write_fd, "w") as fh:
                    fh.write(payload)
            finally:
                os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    result = json.loads(payload) if payload else {}
    if os.waitstatus_to_exitcode(status) != 0 and "error" not in result:
        result["error"] = f"child exit status {status}"
    return result


def serve(workload):
    workload.preload()
    for line in sys.stdin:
        if line.strip():
            result = fork_repetition(workload, json.loads(line))
            sys.stdout.write(RESULT + json.dumps(result) + "\n")
            sys.stdout.flush()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--serve", action="store_true")
    mode.add_argument("--setup", action="store_true")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    import_metastab()
    workload = WORKLOADS[args.workload]
    if args.serve:
        serve(workload)
        return
    timing = Timing()
    workload.execute(args.seed, args.out, timing, setup_only=True)
    print(json.dumps({"setup_end": timing.setup_end}))


if __name__ == "__main__":
    main()
