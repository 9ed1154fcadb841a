"""Every metric of every workload in one table.

    python3 bench/report.py [--seed N]

Runs bench/run.py once per workload with --trace 0 (end-to-end metrics)
and once with --trace 1 (per-layer metrics), one run after another, each
for BENCHMARK.json's run_seconds, and
prints each metric by name and unit with one column per workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    values = {}
    correct = True
    for trace in (0, 1):
        for name in names:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(args.seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            correct = correct and res["correct"]
            for metric, m in res["metrics"].items():
                values[metric, name] = m["value"]
    print("%-40s %-7s" % ("metric", "unit")
          + "".join("%16s" % n for n in names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        print("%-40s %-7s" % (m["name"], m["unit"])
              + "".join("%16.6g" % values[m["name"], n] for n in names))
    print("all outputs correct: %s" % correct)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
