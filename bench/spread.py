"""Run the benchmark over several seeds; print each metric's median and spread.

    python3 bench/spread.py --workload eval --seeds 1-10 [--trace 0] [--out FILE]

Runs are sequential, one ``bench/run.py`` process at a time, each for
BENCHMARK.json's ``run_seconds``.  The spread of a metric is the distance
between the first and third quartile of its values over the seeds
(``statistics.quantiles(values, n=4)``) as a share of their median; it is
printed next to the metric's bound.  ``--out`` writes the summary, each
seed's metrics and digests as JSON, the form of ``baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = done.stdout.strip().splitlines()
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        runs.append({"seed": seed, "correct": result["correct"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "digests": report["digests"], "env": report["env"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} {values} digests={report['digests']}", flush=True)

    units = {k: v["unit"] for k, v in result["metrics"].items()}
    summary = {name: {"unit": units[name],
                      **summarize([r["metrics"][name] for r in runs])}
               for name in units} if len(runs) > 1 else {}
    print(f"{'metric':40s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, s in summary.items():
        bound = bounds.get(name)
        print(f"{name:40s} {s['median']:12.6g} {s['spread']:8.4f} "
              f"{bound if bound is not None else '':>6}")
    if args.out:
        out = {"workload": args.workload, "trace": args.trace,
               "run_seconds": spec["run_seconds"], "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
