"""Certification benchmark for distchroma.

    python3 perfbench/run.py --workload upper-chi3 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload in turn

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` the run is timed with nothing wrapped and reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer metrics from
traced runs instead.  Every metric is printed by name with its unit, and the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without a program to measure it
exits with code 2 and prints no result.
"""

import argparse
import json
import subprocess
import sys

import bench
import workloads


def run_all(args) -> int:
    """Each workload in its own process, one after another, so that peak
    memory is the workload's own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=bench.PHASES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.phase is not None:  # one phase of a traced run, for run_traced
        if args.workload == "all":
            parser.error("--phase needs one --workload")
        traced = args.phase != "untraced"
        try:
            result = bench.trace_phase(args.workload, args.seed, traced, args.phase == "traced")
        except bench.ProgramMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result))
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        if args.trace:
            report, result = bench.run_traced(args.workload, args.seed)
        else:
            report, result = bench.run_timed(args.workload, args.seed, args.seconds)
    except bench.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
