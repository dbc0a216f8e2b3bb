"""treecut benchmark: one seeded workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload build-small --seed 1 --seconds 20 --trace 0

Workloads are ``build-small``, ``build-large`` and ``eval`` (workloads.py,
README.md).  A run sets the workload up ``SETUP_REPS`` times, then repeats
its fixed batch of ops, one at a time in this one process, for about
``--seconds``.  Every output is checked.  With ``--trace 0`` the last line of
stdout holds the end-to-end metrics, measured with tracing off.  With
``--trace 1`` untraced and traced batches alternate; the last line holds
the per-layer metrics and the spans are written to
``bench/out/trace-<workload>.jsonl``.  The line before the last is a
report: environment, sample counts, digests and ``fail_frac``.
"""

import os
import sys

# Fixed before numpy loads.  Two threads ran build-small about 12% faster
# than one on an idle two-core VM, but OpenBLAS threads wait for each other,
# so on a shared host one slowed core stalls both; one thread keeps the
# closed loop a single line of work on a single core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# every run compiles the package from source, so import time is the same
# for the first run in a checkout and for the ones after it
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPS = 5
#: a fresh interpreter's import time varies 0.11-0.22 s from one start to
#: the next on a two-core VM, so it takes more repetitions than set-up
IMPORT_REPS = 15
WORKLOADS = ("build-small", "build-large", "eval")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def _import_program() -> None:
    """Import treecut from this checkout's sources, never from elsewhere."""
    if not (SRC / "treecut" / "__init__.py").is_file():
        sys.exit(f"bench: no treecut sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import treecut
    if Path(treecut.__file__).resolve().parent != SRC / "treecut":
        sys.exit(f"bench: treecut was imported from {treecut.__file__}, not {SRC}")


def _import_reps(workloads) -> list[tuple[float, float, float]]:
    """Time ``import numpy, treecut`` in fresh interpreters.

    Each repetition is (seconds, reference loop before, reference loop after).
    """
    code = ("import time; t = time.perf_counter(); import numpy, treecut; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    reps = []
    for _ in range(IMPORT_REPS):
        before = workloads.reference_seconds()
        seconds = float(subprocess.run([sys.executable, "-B", "-c", code], env=env,
                                       capture_output=True, text=True, check=True,
                                       timeout=60).stdout)
        reps.append((seconds, before, workloads.reference_seconds()))
    return reps


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "seed": seed, "git_commit": _git_commit()}


def _measure(workloads, workload, cases, seed, seconds, recorder=None):
    """Repeat the batch while another one still fits into ``seconds``.

    With a recorder, batches alternate untraced and traced, so that drift in
    the machine's speed lands on both sides of the tracing overhead.
    """
    plain, traced = [], []
    start = perf_counter()
    while True:
        if recorder is None or len(plain) == len(traced):
            batch = workloads.run_batch(workload, cases, seed)
            plain.append(batch)
        else:
            with recorder.installed(f"batch/{len(traced)}"):
                batch = workloads.run_batch(workload, cases, seed, recorder)
            traced.append(batch)
        done = recorder is None or traced
        if done and perf_counter() - start + batch.wall > seconds:
            return plain, traced


def _relative(seconds: float, before: float, after: float) -> float:
    """``seconds`` in units of the reference loop timed just before and after."""
    return seconds / ((before + after) / 2)


def relative_times(batches) -> list[float]:
    """Each op's median time over the batches, in units of the reference loop.

    The host's speed drifts by up to a factor of 1.8 in spells of seconds to
    minutes, for wall and CPU time alike, so a run's seconds depend on when it
    ran.  The reference loop timed on either side of an op runs at the speed
    the op ran at; their ratio keeps the op's cost and drops the drift.
    """
    per_batch = [[_relative(*times) for times in zip(b.latencies, b.refs, b.refs[1:])]
                 for b in batches]
    return [statistics.median(times) for times in zip(*per_batch)]


def _p90(values: list[float]) -> float:
    # inclusive: on build-large's six builds the default method would
    # extrapolate past the slowest one
    return (statistics.quantiles(values, n=10, method="inclusive")[8]
            if len(values) > 1 else values[0])


def _layer_metrics(spans, recorder, workloads, workload, cases, traced, plain,
                   problems):
    per_batch = [spans.layer_metrics(recorder.spans, f"batch/{i}")
                 for i in range(len(traced))]
    out = {}
    for name in per_batch[0]:
        values = [m[name] for m in per_batch]
        if spans.is_count(name):
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced batches: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["textio.parse.s"] = statistics.median(
        spans.layer_metrics(recorder.spans, f"setup/{r}")["textio.parse.s"]
        for r in range(SETUP_REPS))
    out["hierarchy.height_max"], out["hierarchy.tree_nodes"] = \
        workloads.shape(workload, cases, traced[0])
    out["trace.overhead_frac"] = (sum(relative_times(traced))
                                  / sum(relative_times(plain)) - 1)
    return {name: {"value": value, "unit": spans.unit(name)}
            for name, value in out.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import spans
    import workloads

    imports = _import_reps(workloads)
    recorder = spans.Recorder() if args.trace else None
    problems: list[str] = []
    setups, setup_digests = [], set()
    for rep in range(SETUP_REPS):
        before = workloads.reference_seconds()
        start = perf_counter()
        if recorder is None:
            cases = workloads.setup(args.workload, args.seed)
        else:
            with recorder.installed(f"setup/{rep}"):
                cases = workloads.setup(args.workload, args.seed)
        setups.append((perf_counter() - start, before, workloads.reference_seconds()))
        setup_digests.add(workloads.setup_digest(cases))
    if len(setup_digests) > 1:
        problems.append("set-up repetitions produced different corpora or trees")

    plain, traced = _measure(workloads, args.workload, cases, args.seed,
                             args.seconds, recorder)
    # taken before the checks, whose enumeration would otherwise set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    batches = plain + traced
    first = batches[0]
    for batch in batches:
        workloads.check_batch(args.workload, cases, batch)
        for index, (mine, reference) in enumerate(zip(batch.digests, first.digests)):
            if mine != reference:
                batch.failed.add(index)
                problems.append(f"batch output {index} differs from the first batch")
    ratios = workloads.score_quality(args.workload, cases, args.seed, first)
    attempted = sum(len(b.outputs) for b in batches)
    failed = sum(len(b.failed) for b in batches)

    relative = relative_times(plain)
    p90 = _p90(relative)
    latencies = [x for b in plain for x in b.latencies]
    # Set-up seconds follow the host's drift as much as batch seconds do, and
    # the contract wants seconds: set-up in reference units, times the
    # fastest the reference ran in this run, is its time at the run's best
    # speed.  That loop is timed a few hundred to a few thousand times a run.
    fastest_ref = min([x for b in plain for x in b.refs]
                      + [ref for rep in imports + setups for ref in rep[1:]])
    setup_ref = (statistics.median(_relative(*rep) for rep in imports)
                 + statistics.median(_relative(*rep) for rep in setups))
    end_to_end = {
        "setup_s": (setup_ref * fastest_ref, "s"),
        "wall_ref": (sum(relative), "ref"),
        "op_p50_ref": (statistics.median(relative), "ref"),
        "op_p90_ref": (p90, "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1 - failed / attempted, "frac"),
        "ratio_max": (max(ratios, default=0.0), "ratio"),
        "ratio_gmean": (math.exp(statistics.fmean(math.log(r) for r in ratios))
                        if ratios else 0.0, "ratio"),
    }
    report = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "env": _environment(args.seed),
        "setup": {"import_s": [rep[0] for rep in imports],
                  "reps_s": [rep[0] for rep in setups],
                  "measured_s": (statistics.median(rep[0] for rep in imports)
                                 + statistics.median(rep[0] for rep in setups)),
                  "fastest_reference_s": fastest_ref},
        "batches": {"ops": len(first.outputs), "untraced_wall_s": [b.wall for b in plain],
                    "traced_wall_s": [b.wall for b in traced]},
        # the same figures in seconds, which drift with the host's speed
        "in_seconds": {"wall_s": statistics.median(b.wall for b in plain),
                       "op_p50_s": statistics.median(latencies),
                       "op_p90_s": _p90(latencies),
                       "reference_s": statistics.median(x for b in plain for x in b.refs)},
        "op_samples": len(latencies),
        "ops_beyond_p90": sum(1 for x in relative if x > p90),
        "ratio_samples": len(ratios),
        "fail_frac": {"value": failed / attempted, "unit": "frac"},
        "digests": workloads.digests(args.workload, cases, first),
        "problems": problems,
    }
    if recorder is None:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()}
    else:
        metrics = _layer_metrics(spans, recorder, workloads, args.workload, cases,
                                 traced, plain, problems)
        report["untraced"] = {name: v for name, (v, _u) in end_to_end.items()}
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}.jsonl"
        recorder.write_jsonl(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        report["spans"] = len(recorder.spans)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
