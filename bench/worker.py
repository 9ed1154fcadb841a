"""One workload run in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N
        (--seconds S | --ops N) [--trace] [--dump PATH] [--setup-only]

Imports airframe from the checkout's `src/`, does the workload's set-up,
prints `ready`, then runs the closed loop and prints one JSON line with the
raw measurements.  `bench/run.py` starts this process and turns its output
into metrics.  The loop stops after `--ops` ops, or once the summed op time
reaches `--seconds`, at least MIN_OPS ops (and the digest prefix) have run
and the current input block is complete.  Between ops, about once per
REF_EVERY_S of op time and once more at the end, it times the fixed
reference computation of bench/reference.py.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import time
import traceback

from reference import REF_EVERY_S, time_reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ["words", "core", "diagram", "systems", "analysis", "circularize",
           "components", "trees", "cli"]
MIN_OPS = 100
MAX_REPORTED_FAILURES = 20


def load_airframe():
    """The airframe modules of this checkout, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "airframe", "__init__.py")):
        raise SystemExit("bench: no airframe sources under %s" % SRC)
    sys.path.insert(0, SRC)
    af = {m: importlib.import_module("airframe." + m) for m in MODULES}
    pkg = sys.modules["airframe"]
    if os.path.dirname(os.path.abspath(pkg.__file__)) != \
            os.path.join(SRC, "airframe"):
        raise SystemExit("bench: airframe imported from %s" % pkg.__file__)
    return af


def run(workload, seed, seconds, fixed_ops, tracer=None):
    """The closed loop.  Returns the raw measurements as a dict."""
    it = workload.inputs(seed)
    latencies, points, failures = [], [], []
    failed = 0
    digest = hashlib.sha256()
    prefix_digest = None
    busy = 0.0
    n = 0
    ref_s = []
    since_ref = REF_EVERY_S
    while True:
        if fixed_ops:
            if n == fixed_ops:
                break
        elif (busy >= seconds and n >= MIN_OPS and n >= workload.trace_ops
              and n % workload.block == 0):
            break
        if since_ref >= REF_EVERY_S:
            ref_s.append(time_reference())
            since_ref = 0.0
        case = next(it)
        if tracer is not None:
            tracer.op = n
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = workload.op(case)
            error = None
        except Exception:
            result = None
            error = "raised: " + traceback.format_exc(limit=-3)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        if error is None:
            try:
                error = workload.check(case, result)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=-3)
        if error is None:
            digest.update(workload.output(case, result))
            leaves = workload.leaves(result)
            if leaves is not None:
                points.append((leaves, dt))
        else:
            failed += 1
            digest.update(b"failed")
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append({"op": n, "case": repr(case)[:300],
                                 "error": error})
        digest.update(b"\0")
        latencies.append(dt)
        busy += dt
        since_ref += dt
        n += 1
        if n == workload.trace_ops:
            prefix_digest = digest.hexdigest()
    ref_s.append(time_reference())
    return {"ops": n, "failed": failed, "failures": failures,
            "busy_s": busy, "ref_s": ref_s, "latencies": latencies,
            "points": points, "digest": digest.hexdigest(), "prefix_digest": prefix_digest}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--dump", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    af = load_airframe()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(af)
        tracer.enabled = True
    workload = WORKLOADS[args.workload](af)
    workload.setup()
    if tracer is not None:
        tracer.enabled = False
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out = run(workload, args.seed, args.seconds, args.ops, tracer)
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = tracer.metrics()
        out["spans"] = len(tracer.s_name)
        if args.dump:
            tracer.dump(args.dump, {"workload": args.workload,
                                    "seed": args.seed,
                                    "points": out["points"]})
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
