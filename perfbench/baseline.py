"""Run every workload over several seeds and write a baseline file.

Usage, from the root of the repository:

    python3 perfbench/baseline.py --out perfbench/BENCH_seed.json

Runs ``run.py`` once per workload and seed 1-10 with tracing off, then once
per workload with tracing on (seed 1), one process at a time, each for
``BENCHMARK.json``'s ``run_seconds``. For each
end-to-end metric it records the median, the quartiles and the spread
(interquartile distance over the median), as ``statistics.quantiles(n=4)``
gives them. It also records, for information only, the wall-clock ratio of
the relaxed policy's frames/s to the dense-window policy's at 1500 frames,
measured in this process from alternating calls of the two, next to the
op-count ratio of the same two policies.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT, SRC, WORKLOADS, Runner, Workload, _cap_blas_threads  # noqa: E402

SEEDS = list(range(1, 11))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{done.stderr}")
    return {**json.loads(lines[-2]), **json.loads(lines[-1])}


def _stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med,
        "values": values,
    }


def _op_count_ratio() -> float:
    """Dense-window steady cost over relaxed steady cost, from the cost model."""
    sys.path.insert(0, str(SRC))
    from relaxkv import RolloutConfig, StructuredMemory, count_step_cost
    from relaxkv.cli import canonical_baseline_cost

    cfg = RolloutConfig()
    relaxed = count_step_cost(
        StructuredMemory(tail_ids=list(range(cfg.memory.memory_budget))),
        cfg.memory.chunk_size, cfg.model.frame_tokens, cfg.model,
    )
    return canonical_baseline_cost(cfg).score_ops / relaxed.score_ops


def _wall_clock_ratio(seconds: int) -> float:
    """Relaxed over dense-window frames/s, from alternating calls in this process.

    Both policies generate the same 1500 frames, so the ratio of frame rates
    is the dense-window call time over the relaxed one; the median is taken
    over adjacent pairs, which see the host at the same speed.
    """
    sys.path.insert(0, str(SRC))
    from relaxkv import cli

    relaxed = WORKLOADS["relaxed-rollout"]
    dense = Workload("rollout", "dense_window", relaxed.total_frames)
    out = OUT / "summary"
    shutil.rmtree(out, ignore_errors=True)
    runners = {"relaxed": Runner(cli, relaxed.argv(SEEDS[0]), out / "relaxed"),
               "dense": Runner(cli, dense.argv(SEEDS[0]), out / "dense")}
    times: dict[str, list[float]] = {name: [] for name in runners}
    ratios = []
    while sum(map(sum, times.values())) < seconds or len(ratios) < 3:
        order = ["relaxed", "dense"] if len(ratios) % 2 == 0 else ["dense", "relaxed"]
        for name in order:
            times[name].append(runners[name].call())
        ratios.append(times["dense"][-1] / times["relaxed"][-1])
    shutil.rmtree(out, ignore_errors=True)
    if any(rc != 0 for r in runners.values() for _, rc in r.calls):
        raise RuntimeError("a relaxed or dense-window call failed")
    return statistics.median(ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="baseline file to write")
    args = parser.parse_args(argv)
    _cap_blas_threads()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    report = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for name in WORKLOADS:
        runs = [_run(name, seed, seconds, 0) for seed in SEEDS]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                metric: _stats([r["metrics"][metric]["value"] for r in runs])
                for metric in runs[0]["metrics"]
            },
            "context": [r["context"] for r in runs],
            "info": [r["info"] for r in runs],
        }
        traced = _run(name, SEEDS[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_context"] = traced["context"]
        report["workloads"][name] = entry
        for metric, st in entry["end_to_end"].items():
            print(
                f"{name:22s} {metric:14s} median {st['median']:10.4f} "
                f"spread {st['spread']:.4f}  failed {entry['failed']}/{entry['attempted']}",
                flush=True,
            )

    wall = _wall_clock_ratio(seconds)
    ops = _op_count_ratio()
    report["summary"] = {"wall_clock_ratio": wall, "op_count_ratio": ops}
    print(f"summary: relaxed/dense_window wall-clock {wall:.2f}x vs op-count {ops:.2f}x")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
