"""relaxkv benchmark: one workload per run, printed as one JSON result line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload relaxed-rollout --seed 1 --seconds 20 --trace 0

Each workload is a ``relaxkv.cli.main([...])`` call made in this process, with
the run's seed passed through ``--seed``; it is repeated until ``--seconds``
have passed. ``--trace 0`` alternates calls of the program with the same call
of the frozen seed-commit copy (``seedref/``) and reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics (see ``spans.py``). Every call's output is checked against
the seed-commit copy's (see ``reference.py``). The last line of standard
output is the result; the line before it holds the run's environment context
and, for information, the absolute frame rates. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer, layer_metrics, wrapped_targets

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 9  # fewest fresh processes timed per run for setup_s
MIN_TIMED_PAIRS = 3


@dataclass(frozen=True)
class Workload:
    command: str  # relaxkv subcommand
    policy: str
    total_frames: int

    def argv(self, seed: int) -> list[str]:
        return [
            self.command,
            "--seed", str(seed),
            "--set", f"memory.policy={self.policy}",
            "--set", f"rollout.total_frames={self.total_frames}",
        ]


# Why each workload was chosen is in README.md.
WORKLOADS = {
    "relaxed-rollout": Workload("rollout", "relaxed", 1500),
    "profile-long": Workload("profile", "relaxed", 12000),
}

END_TO_END_UNITS = {"speedup_vs_seed": "x", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "attention.attend_self_s": "s",
    "attention.ns_per_score_op": "ns",
    "attention.score_ops": "count",
    "attention.embed_s": "s",
    "attention.kv_gather_mb": "MB_computed",
    "attention.evict_s": "s",
    "attention.evicted_frames": "count",
    "attention.resident_frames_peak": "count",
    "attention.resident_mb_peak": "MB_computed",
    "attention.count_cost_s": "s",
    "rope.rotate_s": "s",
    "rope.rotated_rows": "count",
    "rope.plan_s": "s",
    "memory.select_s": "s",
    "memory.partition_s": "s",
    "memory.candidates_scored": "count",
    "memory.history_selected": "count",
    "memory.select_yield": "ratio",
    "cli.report_s": "s",
    "cli.self_s": "s",
    "rollout.self_s": "s",
    "rollout.step_ms_p50": "ms",
    "rollout.step_ms_tail": "ms",
    "rollout.step_tail_pct": "%",
    "rollout.step_samples": "count",
    "metrics.trace_metrics_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.root_self_s": "s",
    "trace.layer_sum_ratio": "ratio",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="relaxkv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # internal: a fresh process that only sets up, timed for setup_s
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _cap_blas_threads() -> None:
    """Run BLAS on one thread unless asked for more, never above nproc.

    The calls are mostly single-threaded Python; BLAS threads that wait for
    each other on a shared host only add noise. Must run before numpy is
    imported.
    """
    nproc = len(os.sched_getaffinity(0))
    wanted = os.environ.get("OPENBLAS_NUM_THREADS", "")
    threads = min(int(wanted), nproc) if wanted.isdigit() and int(wanted) > 0 else 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def _set_up(workload: Workload, seed: int):
    """Import relaxkv from this checkout and build the workload's config and stack."""
    sys.path.insert(0, str(SRC))
    from relaxkv import MemoryConfig, Policy, RolloutConfig, ToyAttentionStack, cli

    cfg = RolloutConfig(
        memory=MemoryConfig(policy=Policy(workload.policy)),
        total_frames=workload.total_frames,
        seed=seed,
    )
    ToyAttentionStack(cfg.model, cfg.seed)
    return cli


def _setup_probe(args) -> float:
    """Wall time from process start until set-up is done, in a fresh process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--probe",
    ]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if proc.returncode != 0 or line != b"ready\n":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _calibration_ms() -> float:
    """Median time of a fixed numpy block; context only, never a divisor."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(128, 128))
    q = rng.normal(size=(48, 4, 16))
    k = rng.normal(size=(1024, 4, 16))
    times = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(10):
            a @ a
            np.einsum("qhd,khd->hqk", q, k)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _blas_threads_in_effect() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _context(args, calibration_ms: float) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads_in_effect(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_ms": calibration_ms,
    }


class Runner:
    """Makes the workload's calls and remembers where each wrote its output."""

    def __init__(self, cli, argv: list[str], run_dir: Path):
        self.cli = cli
        self.argv = argv
        self.run_dir = run_dir
        self.calls: list[tuple[Path, int | None]] = []  # (out dir, exit code)
        self.problems: dict[int, list[str]] = defaultdict(list)  # found outside its output

    def call(self) -> float:
        out = self.run_dir / f"call{len(self.calls)}"
        start = time.perf_counter()
        try:
            rc = self.cli.main([*self.argv, "--out", str(out)])
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = None
        elapsed = time.perf_counter() - start
        self.calls.append((out, rc))
        return elapsed

    def failures(self, ref_dir: Path) -> int:
        from reference import compare_outputs  # imports numpy: only after _cap_blas_threads

        failed = 0
        for idx, (out, rc) in enumerate(self.calls):
            problems = [f"exit code {rc}"] if rc != 0 else compare_outputs(out, ref_dir)
            problems += self.problems[idx]
            if problems:
                failed += 1
                print(f"{out.name}: incorrect: {'; '.join(problems)}", file=sys.stderr)
        return failed


def _check_restored():
    still = wrapped_targets()
    if still:
        raise RuntimeError(f"traced functions not restored: {still}")


def _paired_loop(runner: Runner, seed_runner: Runner, seconds: float, probe):
    """Calls of the program and of the seed-commit copy, in pairs, until the run's time is used.

    The first pair warms both up and is checked but not timed. After it, the
    order within a pair alternates (seed first, then program first), so a
    host that slows down or speeds up during the run weighs on both alike.
    A set-up probe follows each pair, so set-up is timed across the whole run
    rather than in one burst; the last ones run after the pairs if there were
    fewer pairs than ``SETUP_PROBES``.
    Returns the program's and the seed copy's call times, pair by pair, the
    set-up times, and the peak RSS in MB after the first program call, before
    any seed call.
    """
    start = time.perf_counter()
    _check_restored()
    runner.call()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    seed_runner.call()
    program: list[float] = []
    seed: list[float] = []
    setup: list[float] = []
    while True:
        _check_restored()
        if len(program) % 2 == 0:
            seed.append(seed_runner.call())
            program.append(runner.call())
        else:
            program.append(runner.call())
            seed.append(seed_runner.call())
        setup.append(probe())
        used = time.perf_counter() - start
        pair = statistics.median(program) + statistics.median(seed)
        if len(program) >= MIN_TIMED_PAIRS and used + pair > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    return program, seed, setup, peak_rss_mb


def _traced_loop(runner: Runner, seconds: float, tracer: Tracer):
    """Untraced/traced pairs, alternating which goes first.

    Returns the untraced and traced call times and the runner's index of each
    traced call, in the order of ``tracer.call_counts``.
    """
    traced_calls: list[int] = []

    def traced() -> float:
        tracer.install()
        try:
            root = tracer.begin_call()
            try:
                elapsed = runner.call()
            finally:
                tracer.close(root)
        finally:
            tracer.uninstall()
        traced_calls.append(len(runner.calls) - 1)
        return elapsed

    def untraced() -> float:
        _check_restored()
        return runner.call()

    start = time.perf_counter()
    plain: list[float] = []
    with_spans: list[float] = []
    while True:
        if len(plain) % 2 == 0:
            plain.append(untraced())
            with_spans.append(traced())
        else:
            with_spans.append(traced())
            plain.append(untraced())
        used = time.perf_counter() - start
        pair = statistics.median(plain) + statistics.median(with_spans)
        if len(plain) >= MIN_TIMED_PAIRS and used + pair > seconds:
            return plain, with_spans, traced_calls


def _metric_line(metrics: dict, units: dict) -> dict:
    return {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "relaxkv" / "__init__.py").is_file():
        print(f"benchmark error: relaxkv sources not found under {SRC}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    workload = WORKLOADS[args.workload]
    cli = _set_up(workload, args.seed)
    if args.probe:
        print("ready", flush=True)
        return 0

    calibration = _calibration_ms()
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(cli, workload.argv(args.seed), run_dir)
    from reference import seed_cli  # imported only after the program's set-up

    seed_runner = Runner(seed_cli(), workload.argv(args.seed), run_dir / "seed")

    if args.trace:
        tracer = Tracer()
        plain, with_spans, traced_calls = _traced_loop(runner, args.seconds, tracer)
        _check_restored()
        seed_runner.call()  # the reference for the correctness check
        metrics = layer_metrics(tracer, with_spans, plain)
        tracer.write(run_dir / "spans.jsonl")
        units = PER_LAYER_UNITS
        samples = {"untraced_s": plain, "traced_s": with_spans}
        info = {}
    else:
        program, seed, setup_times, peak_rss_mb = _paired_loop(
            runner, seed_runner, args.seconds, lambda: _setup_probe(args)
        )
        metrics = {
            # time-weighted over the run: with a handful of pairs whose
            # calls the host slows by up to a third, the mean spreads less
            # from run to run than the median
            "speedup_vs_seed": sum(seed) / sum(program),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        samples = {"call_s": program, "seed_call_s": seed, "setup_s": setup_times}
        # absolute rates, for information: they follow the host's speed
        info = {
            "frames_per_s": statistics.median(workload.total_frames / t for t in program),
            "seed_frames_per_s": statistics.median(workload.total_frames / t for t in seed),
        }

    bad_seed = [rc for _, rc in seed_runner.calls if rc != 0]
    if bad_seed:
        raise RuntimeError(f"the seed-commit copy failed with exit codes {bad_seed}")
    ref_dir = seed_runner.calls[0][0]
    report = ref_dir / "rollout.json"
    if args.trace and report.is_file() and "attention.score_ops" in metrics:
        # each traced call's count must equal the report's own total, exactly
        total = json.loads(report.read_text())["metrics"]["total_score_ops"]
        for idx, counts in zip(traced_calls, tracer.call_counts):
            if counts["score_ops"] != total:
                runner.problems[idx].append(
                    f"traced score_ops {counts['score_ops']} != report total {total}"
                )
    failed = runner.failures(ref_dir)
    context = _context(args, calibration)
    result = {
        "correct": failed == 0,
        "attempted": len(runner.calls),
        "failed": failed,
        "metrics": _metric_line(metrics, units),
    }
    record = {"context": context, "info": info, "samples": samples, "result": result}
    for out, _ in runner.calls + seed_runner.calls:
        shutil.rmtree(out, ignore_errors=True)
    (run_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"context": context, "info": info}))
    print(json.dumps(result), flush=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
