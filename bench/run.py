"""The airframe benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and their units and bounds are listed in BENCHMARK.json
at the root of the checkout.  Every workload run happens in a fresh
interpreter (bench/worker.py), so airframe's module-level lazy state starts
cold, as it does for every `airframe` invocation.

--trace 0  set-up is timed SETUP_SAMPLES + 1 times, each in a fresh
           interpreter from process start until the worker is ready, and
           the median is reported.  The last of these workers then runs the
           timed closed loop for S seconds of op time.  Prints the
           end-to-end metrics, every time scaled to the speed of a host on
           which the reference computation of bench/reference.py takes
           REF_S seconds (the unscaled values are saved in the summary).
--trace 1  runs the workload's fixed op count twice: untraced, then with
           every traced airframe function wrapped (bench/tracer.py).  Prints
           the per-layer metrics, and fails the run if the two output
           digests differ.

Human-readable lines come first; the last line of standard output is the
JSON result.  A summary with the output digests, the failures and the
scaling points is written to .bench_out/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 14
RUN_LIMIT_S = 170

sys.path.insert(0, HERE)
from reference import REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline):
    """Run a worker; return (seconds from start until `ready`, its JSON
    result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or code != 0:
        raise WorkerError("worker %s exited with %s" % (" ".join(args), code))
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def loglog_slope(points):
    """Least-squares slope of log(seconds) against log(leaves)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def timed_run(name, seed, seconds, deadline):
    base = ["--workload", name, "--seed", str(seed)]
    setups = [spawn(base + ["--setup-only"], deadline)[0]
              for _ in range(SETUP_SAMPLES)]
    ready, res = spawn(base + ["--seconds", str(seconds)], deadline)
    setups.append(ready)
    lat = res["latencies"]
    ops = res["ops"]
    measured = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / res["busy_s"],
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
    }
    scale = REF_S / statistics.median(res["ref_s"])
    metrics = {name: value / scale if name == "ops_per_s" else value * scale
               for name, value in measured.items()}
    metrics["success_rate"] = (ops - res["failed"]) / ops
    metrics["peak_rss_mb"] = res["peak_rss_kb"] / 1024
    fields = {"unscaled": measured, "time_scale": scale,
              "reference_s": res["ref_s"],
              "setup_samples_s": setups, "ops": ops,
              "error_rate": res["failed"] / ops,
              "digest_prefix_ops": WORKLOADS[name].trace_ops,
              "digest": res["prefix_digest"], "digest_all": res["digest"],
              "failures": res["failures"]}
    return ops, res["failed"], res["failed"] == 0, metrics, fields


def traced_run(name, seed, deadline):
    n = WORKLOADS[name].trace_ops
    base = ["--workload", name, "--seed", str(seed), "--ops", str(n)]
    dump = os.path.join(OUT_DIR, "spans-%s-seed%d.json.gz" % (name, seed))
    _, plain = spawn(base, deadline)
    _, traced = spawn(base + ["--trace", "--dump", dump], deadline)
    t = traced["trace"]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = dict(t)
    metrics.update({
        "words.letters": t.get("words.letters", 0),
        "diagram.reduce.leaves_removed":
            t.get("diagram.reduce.leaves_removed", 0),
        "diagram.reduce.hit_ratio": ratio(t.get("diagram.reduce.hits", 0),
                                          t["diagram.reduce.calls"]),
        "diagram.leaves_out": ratio(t.get("diagram.leaves_out_sum", 0),
                                    t["diagram.compose.calls"]),
        "diagram.leaf_slope": loglog_slope(plain["points"]),
        "components.solve.word_len": ratio(
            t.get("components.solve.word_len_sum", 0),
            t.get("components.solve.solved", 0)),
        "components.solve.unsolved": t.get("components.solve.unsolved", 0),
        "cli.rejected": t.get("cli.rejected", 0),
        "trace.overhead": plain["busy_s"] / traced["busy_s"],
        "trace.op_s": traced["busy_s"],
        "trace.spans": traced["spans"],
    })
    same = plain["digest"] == traced["digest"]
    correct = same and plain["failed"] == 0 and traced["failed"] == 0
    fields = {"ops": n, "digest": plain["digest"],
              "traced_digest": traced["digest"], "spans_file": dump,
              "failures": plain["failures"] + traced["failures"],
              "points": plain["points"]}
    return n, traced["failed"], correct, metrics, fields


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            attempted, failed, correct, values, fields = traced_run(
                args.workload, args.seed, deadline)
        else:
            attempted, failed, correct, values, fields = timed_run(
                args.workload, args.seed, args.seconds, deadline)
    except WorkerError as ex:
        print("bench: %s" % ex, file=sys.stderr)
        return 1

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "correct": correct,
               "attempted": attempted, "failed": failed,
               "metrics": metrics, "fields": fields}
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=1)

    print("workload %s  seed %d  trace %d  ops %d  failed %d"
          % (args.workload, args.seed, args.trace, attempted, failed))
    for name, m in metrics.items():
        print("  %-36s %14.6g %s" % (name, m["value"], m["unit"]))
    for key in ("error_rate", "digest", "traced_digest", "digest_all"):
        if key in fields:
            print("  %-36s %s" % (key, fields[key]))
    for f in fields["failures"][:5]:
        print("  FAILED op %d: %s  [%s]" % (f["op"], f["error"], f["case"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
