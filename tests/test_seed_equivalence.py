"""Every policy's reports match the frozen seed copy of the package.

``perfbench/seedref`` holds the package as it stood when the benchmark was
defined; ``perfbench/reference.compare_outputs`` is the benchmark's own output
check. The benchmark times only relaxed workloads, so this test is the
equivalence gate for the other policies. Configs whose behaviour was changed
on purpose since the seed (bounded cache with a fixed history position, and
the config-time rejections) are left out.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import reference  # noqa: E402

from relaxkv.cli import main  # noqa: E402

from test_cli import config_settings  # noqa: E402

POLICIES = ["relaxed", "dense_window", "attention_sink", "none", "full",
            "sink_only", "tail_only", "history_only"]
VARIANTS = {
    "default": [],
    "chunk4-window6-tail3-fixed2": [
        "memory.chunk_size=4", "memory.window_size=6", "memory.n_sink=0",
        "memory.n_tail=3", "memory.n_history=2", "memory.pool_size=5",
        "memory.fixed_history_position=2", "rollout.total_frames=36",
    ],
    "bounded-window10-layer1": [
        "memory.bounded_cache=true", "memory.window_size=10",
        "memory.scoring_layer=1", "rollout.total_frames=36",
    ],
    # the prototype paths of selection: a tail of several frames, no sink,
    # and a one-frame sink
    "sink3-tail3-history2-pool5": [
        "memory.n_sink=3", "memory.n_tail=3", "memory.n_history=2",
        "memory.pool_size=5", "rollout.total_frames=90",
    ],
    "sink0-tail3": ["memory.n_sink=0", "memory.n_tail=3", "rollout.total_frames=90"],
    "sink1-layer0": [
        "memory.n_sink=1", "memory.scoring_layer=0", "rollout.total_frames=90",
    ],
}


@pytest.mark.parametrize("command", ["rollout", "profile"])
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_reports_match_seed_copy(tmp_path, command, variant):
    seed_main = reference.seed_cli().main
    for policy in POLICIES:
        sets = [f"memory.policy={policy}", *VARIANTS[variant]]
        argv = [command, "--seed", "3", *(a for s in sets for a in ("--set", s))]
        got, ref = tmp_path / f"{policy}-got", tmp_path / f"{policy}-ref"
        assert main([*argv, "--out", str(got)]) == 0
        assert seed_main([*argv, "--out", str(ref)]) == 0
        assert reference.compare_outputs(got, ref) == [], policy


# test id prefix -> --set overrides; the 3,000-frame case keeps its bare ids
LONG_PROFILES = {
    "": ["rollout.total_frames=3000"],
    "tokens2p31-": ["model.frame_tokens=2147483648", "rollout.total_frames=30"],
}


@pytest.mark.parametrize(
    ("fmt", "sets"),
    [(fmt, sets) for sets in LONG_PROFILES.values() for fmt in ("csv", "json")],
    ids=[f"{name}{fmt}" for name in LONG_PROFILES for fmt in ("csv", "json")],
)
def test_long_profiles_match_seed_copy(tmp_path, fmt, sets):
    """3,000 frames, 1,000 steps: step passes 10 and 100 and generated_before
    also 1,000, digit counts the 36- to 90-frame variants above never reach.
    2**31 tokens a frame: score ops pass int64 and are written as Python
    ints."""
    seed_main = reference.seed_cli().main
    for policy in POLICIES:
        argv = ["profile", "--seed", "3", "--format", fmt, "--set", f"memory.policy={policy}",
                *(a for s in sets for a in ("--set", s))]
        got, ref = tmp_path / f"{policy}-got", tmp_path / f"{policy}-ref"
        assert main([*argv, "--out", str(got)]) == 0
        assert seed_main([*argv, "--out", str(ref)]) == 0
        assert reference.compare_outputs(got, ref) == [], policy


def _quiet(run, argv):
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        return run(argv)


@settings(max_examples=300, deadline=None)
@given(config_settings())
def test_every_config_matches_seed_copy(sets):
    """Over the whole config space, a rollout and a profile that run write
    the seed copy's reports. Two cases are not run in the seed copy:

    - a config rejected at config time (exit 2), which may be one the seed
      accepted;
    - a rollout with bounded_cache and a fixed history position, where the
      seed evicts frames the fixed position attends and exits 3 (CHANGES.md,
      the entry on interval-based eviction).
    """
    seed_main = reference.seed_cli().main
    values = dict(s.split("=", 1) for s in sets)
    pins_evicted = (
        values["memory.policy"] == "relaxed" and values["memory.bounded_cache"] == "true"
        and values["memory.fixed_history_position"] != "none"
    )
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("rollout", "profile"):
            argv = [command, "--seed", "3", *(a for s in sets for a in ("--set", s))]
            got, ref = Path(tmp) / f"{command}-got", Path(tmp) / f"{command}-ref"
            code = _quiet(main, [*argv, "--out", str(got)])
            if code == 2 or (command == "rollout" and pins_evicted):
                continue
            assert code == 0
            assert _quiet(seed_main, [*argv, "--out", str(ref)]) == 0
            assert reference.compare_outputs(got, ref) == [], command
