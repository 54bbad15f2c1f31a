"""Write the fixed set of 278 reports used to check byte identity between
two versions of relaxkv.

    PYTHONPATH=<tree>/src python tools/report_set.py OUT [--check REF]

Run it once per tree (for example a `git worktree` of the parent commit and
the working tree) into two directories. With `--check REF`, it first writes
the set into OUT with the `relaxkv` found on `PYTHONPATH`, as without it,
then compares OUT with the set in REF byte for byte and exits 1 listing every
file that differs, is missing from OUT or is extra in OUT, and, on stderr,
the first line on which each differing file differs; it exits 0 when the sets
are the same. For each differing directory that holds a `rollout.json`, it
also prints on stderr the verdict of the benchmark's output check
(`perfbench/reference.py`'s `compare_outputs`) on that directory: ids,
roles, positions and costs exactly, scores, metrics and frame features
within 1e-9 + 1e-6 * |ref|. The set is 8 policies x 10 variants x {rollout json, profile json,
profile csv}, 8 policies x {profile csv, profile json} at 12,000 frames (the
tables the `profile-long` benchmark workload times; no rollouts that long) and
at 2**31 tokens a frame over 30 frames (score ops beyond int64), plus an
8-policy x n_sink {0,2} sweep, an 8-policy compare and a {relaxed, full} x
total_frames {15, 60} sweep (at 15 frames one clip, so drift and repetition
are empty cells), each in csv and json, all with seed 1. Every call goes through
`relaxkv.cli.main` and must exit 0.
"""

import argparse
import itertools
import os
import sys

# Attention runs its products as gemms OpenBLAS keeps on one thread, but not
# where one query row alone is past that size, and other BLAS libraries split
# by their own rules; one thread keeps the set's bytes fixed. The setting only
# takes effect before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import relaxkv  # noqa: E402
from reference import compare_outputs  # noqa: E402
from relaxkv.cli import main  # noqa: E402
from relaxkv.config import Policy  # noqa: E402

POLICIES = [p.value for p in Policy]

# variant directory -> --set overrides
VARIANTS = {
    "default": [],
    "chunk1_window7": ["memory.chunk_size=1", "memory.window_size=7"],
    "chunk4_window6": ["memory.chunk_size=4", "memory.window_size=6"],
    "sink0_tail3": ["memory.n_sink=0", "memory.n_tail=3"],
    "sink3_tail0_history2_pool5": [
        "memory.n_sink=3", "memory.n_tail=0", "memory.n_history=2", "memory.pool_size=5",
    ],
    "bounded_90": ["memory.bounded_cache=true", "rollout.total_frames=90"],
    "fixed2": ["memory.fixed_history_position=2"],
    "layer1_window12": ["memory.scoring_layer=1", "memory.window_size=12"],
    "bounded_fixed5_window10_90": [
        "memory.bounded_cache=true", "memory.fixed_history_position=5",
        "memory.window_size=10", "rollout.total_frames=90",
    ],
    "frames600_history3_pool7": [
        "rollout.total_frames=600", "memory.n_history=3", "memory.pool_size=7",
    ],
}


# variants written as profiles only: a rollout of 12,000 frames takes minutes,
# and one of 2**31 tokens a frame cannot hold its keys
PROFILE_VARIANTS = {
    "frames12000": ["rollout.total_frames=12000"],
    "tokens2p31": ["model.frame_tokens=2147483648", "rollout.total_frames=30"],
}


def _sets(overrides: list[str]) -> list[str]:
    return [arg for item in overrides for arg in ("--set", item)]


def calls(out: Path):
    """Every CLI argument list of the set; each (variant, policy) pair writes
    into its own directory, each sweep and the compare into theirs."""
    for variant, overrides in {**VARIANTS, **PROFILE_VARIANTS}.items():
        for policy in POLICIES:
            d = str(out / variant / policy)
            common = ["--seed", "1", "--out", d, *_sets([f"memory.policy={policy}", *overrides])]
            if variant in VARIANTS:
                yield ["rollout", *common]
            for fmt in ("csv", "json"):
                yield ["profile", *common, "--format", fmt]
    for fmt in ("csv", "json"):
        yield ["sweep", "--seed", "1", "--out", str(out / "sweep"), "--format", fmt,
               "--grid", "memory.policy=" + ",".join(POLICIES), "--grid", "memory.n_sink=0,2"]
        yield ["compare", "--seed", "1", "--out", str(out / "compare"), "--format", fmt,
               "--policies", ",".join(POLICIES)]
        yield ["sweep", "--seed", "1", "--out", str(out / "sweep_short"), "--format", fmt,
               "--grid", "rollout.total_frames=15,60", "--grid", "memory.policy=relaxed,full"]


def run(out: Path) -> int:
    print(f"relaxkv from {Path(relaxkv.__file__).parent}", file=sys.stderr)
    for argv in calls(out):
        code = main(argv)
        if code != 0:
            print(f"exit {code}: relaxkv {' '.join(argv)}", file=sys.stderr)
            return 1
    written = sum(1 for f in out.rglob("*") if f.is_file())
    print(f"{written} reports in {out}", file=sys.stderr)
    return 0


def _files(root: Path) -> set[Path]:
    return {f.relative_to(root) for f in root.rglob("*") if f.is_file()}


def first_difference(ref: bytes, out: bytes, width: int = 60) -> str:
    """The first line, numbered from 1, on which ``out`` differs from ``ref``,
    with both lines, line ends included, cut to ``width`` bytes; the two must
    differ."""
    pairs = itertools.zip_longest(ref.splitlines(True), out.splitlines(True), fillvalue=b"")
    number, lines = next((n, p) for n, p in enumerate(pairs, 1) if p[0] != p[1])
    ref_line, out_line = (
        repr(line[:width]) + ("..." if len(line) > width else "") for line in lines
    )
    return f"line {number}: ref {ref_line}, out {out_line}"


def check(out: Path, ref: Path) -> int:
    """Compare the set in ``out`` with the one in ``ref``, byte for byte."""
    written, expected = _files(out), _files(ref)
    differing = [
        f for f in sorted(written & expected)
        if (out / f).read_bytes() != (ref / f).read_bytes()
    ]
    problems = [f"missing {f}" for f in sorted(expected - written)]
    problems += [f"extra {f}" for f in sorted(written - expected)]
    problems += [f"differs {f}" for f in differing]
    for line in problems:
        print(line)
    for f in differing:
        print(f"{f} {first_difference((ref / f).read_bytes(), (out / f).read_bytes())}",
              file=sys.stderr)
    for d in sorted({f.parent for f in differing if (ref / f.parent / "rollout.json").is_file()}):
        verdict = "; ".join(compare_outputs(out / d, ref / d)) or "within tolerance"
        print(f"{d}/ tolerance check: {verdict}", file=sys.stderr)
    if problems:
        print(f"{len(problems)} of {len(written | expected)} files do not match {ref}",
              file=sys.stderr)
        return 1
    print(f"all {len(expected)} files match {ref}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write the fixed report set.")
    parser.add_argument("out", type=Path, help="directory to write the set into")
    parser.add_argument("--check", type=Path, metavar="REF",
                        help="a set written earlier to compare OUT with, byte for byte")
    args = parser.parse_args()
    code = run(args.out)
    if code == 0 and args.check is not None:
        code = check(args.out, args.check)
    sys.exit(code)
