"""Tests of the benchmark's own machinery: the output check and the tracer."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reference
import run
import spans

sys.path.insert(0, str(run.SRC))

from relaxkv import cli  # noqa: E402

SMALL = ["--set", "rollout.total_frames=60"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Live rollout and profile outputs of one small config."""
    root = tmp_path_factory.mktemp("outputs")
    assert cli.main(["rollout", "--seed", "4", *SMALL, "--out", str(root / "rollout")]) == 0
    assert cli.main(["profile", "--seed", "4", *SMALL, "--out", str(root / "profile")]) == 0
    return root


def _copy(src: Path, dst: Path, edit=None) -> Path:
    shutil.copytree(src, dst)
    if edit:
        path = dst / "rollout.json"
        report = json.loads(path.read_text())
        edit(report)
        path.write_text(json.dumps(report, indent=2) + "\n")
    return dst


def test_seed_reference_matches_live_output(outputs, tmp_path):
    ref = tmp_path / "ref"
    argv = ["rollout", "--seed", "4", *SMALL, "--out", str(ref)]
    assert reference.seed_cli().main(argv) == 0
    assert reference.compare_outputs(outputs / "rollout", ref) == []


def test_float_reordering_within_tolerance_passes(outputs, tmp_path):
    def nudge(report):
        report["frame_features"][0][0] *= 1 + 1e-12
        report["steps"][-1]["scored"][0]["relaxation"] += 1e-13

    got = _copy(outputs / "rollout", tmp_path / "got", nudge)
    assert reference.compare_outputs(got, outputs / "rollout") == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r["steps"][-1]["history_ids"].__setitem__(0, 3),
        lambda r: r["steps"][-1]["positions"][0].__setitem__(1, 99),
        lambda r: r["steps"][-1].__setitem__("score_ops", 1),
        lambda r: r["frame_features"][5].__setitem__(3, r["frame_features"][5][3] + 1e-3),
        lambda r: r["steps"][-1]["scored"][0].__setitem__("stability", 0.5),
        lambda r: r["metrics"].__setitem__("total_score_ops", 0),
        lambda r: r["steps"].pop(),
    ],
    ids=["history", "position", "cost", "features", "score", "total", "missing-step"],
)
def test_perturbed_rollout_is_rejected(outputs, tmp_path, edit):
    got = _copy(outputs / "rollout", tmp_path / "got", edit)
    assert reference.compare_outputs(got, outputs / "rollout")


def test_perturbed_profile_byte_is_rejected(outputs, tmp_path):
    got = _copy(outputs / "profile", tmp_path / "got")
    path = got / "profile.csv"
    text = path.read_text()
    path.write_text(text[:-2] + ("1" if text[-2] != "1" else "2") + text[-1])
    assert reference.compare_outputs(got, outputs / "profile")


def test_problem_found_outside_the_output_fails_the_call(outputs):
    # e.g. a traced score-op count that differs from the report's total
    runner = run.Runner(cli, [], outputs)
    runner.calls = [(outputs / "rollout", 0), (outputs / "rollout", 0)]
    assert runner.failures(outputs / "rollout") == 0
    runner.problems[1].append("traced score_ops 1 != report total 2")
    assert runner.failures(outputs / "rollout") == 1


class _LoggedRunner:
    def __init__(self, log: list[str], name: str):
        self.log = log
        self.name = name

    def call(self) -> float:
        self.log.append(self.name)
        return 1.0 if self.name == "program" else 1.5


def test_paired_loop_warms_up_then_alternates_the_order():
    log: list[str] = []
    program, seed, setup, peak_rss_mb = run._paired_loop(
        _LoggedRunner(log, "program"), _LoggedRunner(log, "seed"), seconds=0,
        probe=lambda: log.append("probe") or 0.2,
    )
    assert log[:2] == ["program", "seed"]  # warm-up pair, not timed
    pairs = [
        "seed", "program", "probe", "program", "seed", "probe", "seed", "program", "probe",
    ]
    assert log[2:11] == pairs
    assert log[11:] == ["probe"] * (run.SETUP_PROBES - run.MIN_TIMED_PAIRS)
    assert program == [1.0] * run.MIN_TIMED_PAIRS
    assert seed == [1.5] * run.MIN_TIMED_PAIRS
    assert setup == [0.2] * run.SETUP_PROBES
    assert peak_rss_mb > 0


def _traced_call(tracer, out: Path):
    tracer.install()
    try:
        root = tracer.begin_call()
        argv = ["rollout", "--seed", "4", *SMALL, "--out", str(out)]
        start = time.perf_counter()
        assert cli.main(argv) == 0
        elapsed = time.perf_counter() - start
        tracer.close(root)
    finally:
        tracer.uninstall()
    return elapsed


def test_tracer_restores_originals_and_accounts_for_the_call(tmp_path):
    originals = {t: spans._resolve(t[0], t[1]) for t in spans.TARGETS}
    originals = {t: getattr(o, a) for t, (o, a) in originals.items()}
    tracer = spans.Tracer()
    elapsed = _traced_call(tracer, tmp_path)

    assert spans.wrapped_targets() == []
    for (module, attr_path, _), fn in originals.items():
        owner, attr = spans._resolve(module, attr_path)
        assert getattr(owner, attr) is fn
    metrics = spans.layer_metrics(tracer, [elapsed], [elapsed])
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    report = json.loads((tmp_path / "rollout.json").read_text())
    assert metrics["attention.score_ops"] == report["metrics"]["total_score_ops"]
    assert metrics["rollout.step_samples"] == len(report["steps"])
    assert metrics["trace.layer_sum_ratio"] == pytest.approx(1.0, abs=0.05)
    steps = {s.step for s in tracer.spans if s.name == "attention.attend_chunk"}
    assert steps == set(range(len(report["steps"])))


def test_missing_target_drops_its_metrics_only(tmp_path):
    # as if a refactor had renamed attend_chunk away
    targets = [
        (module, "attend_chunk_gone", span) if span == "attention.attend_chunk" else
        (module, attr, span)
        for module, attr, span in spans.TARGETS
    ]
    tracer = spans.Tracer(targets)
    elapsed = _traced_call(tracer, tmp_path)

    assert spans.wrapped_targets() == []
    metrics = spans.layer_metrics(tracer, [elapsed], [elapsed])
    assert "attention.score_ops" not in metrics
    assert "attention.attend_self_s" not in metrics
    assert metrics["memory.candidates_scored"] > 0


def test_layer_sum_shows_time_no_wrapper_covers(tmp_path):
    def traced_metrics(targets, out):
        tracer = spans.Tracer(targets)
        elapsed = _traced_call(tracer, out)
        return elapsed, spans.layer_metrics(tracer, [elapsed], [elapsed])

    _, covered = traced_metrics(spans.TARGETS, tmp_path / "covered")
    # without the cmd_rollout wrapper, report writing lands in the root span
    elapsed, gap = traced_metrics(
        [t for t in spans.TARGETS if t[2] != "cli.cmd_rollout"], tmp_path / "gap"
    )
    assert gap["trace.root_self_s"] > covered["trace.root_self_s"]
    assert gap["trace.layer_sum_ratio"] < covered["trace.layer_sum_ratio"]
    assert gap["trace.layer_sum_ratio"] == pytest.approx(
        1.0 - gap["trace.root_self_s"] / elapsed, abs=1e-3
    )


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(
        Path(run.__file__).parent, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relaxed-rollout",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
