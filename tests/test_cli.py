import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from relaxkv.cli import main
from relaxkv.config import Policy
from relaxkv.errors import ContractViolationError
from relaxkv.rollout import run_rollout


def read_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


def csv_header_comments(path):
    return [l for l in path.read_text().splitlines() if l.startswith("#")]


class TestRollout:
    def test_default_run_attends_seven(self, tmp_path):
        assert main(["rollout", "--seed", "1", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "rollout.json").read_text())
        assert report["schema_version"] == 1
        assert report["config"]["rollout"]["seed"] == 1
        for step in report["steps"][2:]:
            assert step["attended_frames"] == 7
        assert report["metrics"]["cost_ratio"] == 3.0

    def test_missing_seed_rejected(self, tmp_path):
        assert main(["rollout", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_format_rejected(self, tmp_path, capsys, fmt):
        """A trace is always JSON: only the table subcommands take --format."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["rollout", "--seed", "1", "--format", fmt, "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_total_frames_rejected(self, tmp_path):
        assert (
            main(
                ["rollout", "--seed", "1", "--out", str(tmp_path),
                 "--set", "rollout.total_frames=50"]
            )
            == 2
        )

    def test_unknown_key_rejected(self, tmp_path):
        assert (
            main(["rollout", "--seed", "1", "--out", str(tmp_path),
                  "--set", "memory.bogus=1"])
            == 2
        )

    def test_config_file_and_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[rollout]\nseed = 5\ntotal_frames = 30\n"
            "[memory]\nn_sink = 1\n"
        )
        assert (
            main(["rollout", "--config", str(cfg), "--out", str(tmp_path),
                  "--set", "memory.n_sink=3"])
            == 0
        )
        report = json.loads((tmp_path / "rollout.json").read_text())
        assert report["config"]["memory"]["n_sink"] == 3
        assert report["config"]["rollout"]["total_frames"] == 30

    def test_runtime_error_exit_code(self, tmp_path, monkeypatch):
        import relaxkv.cli as cli_mod

        def boom(cfg):
            raise ContractViolationError("injected")

        monkeypatch.setattr(cli_mod, "run_rollout", boom)
        assert main(["rollout", "--seed", "1", "--out", str(tmp_path)]) == 3

    def test_contract_error_names_step_policy_and_frame(
        self, tmp_path, monkeypatch, capsys
    ):
        import relaxkv.rollout as rollout_mod

        evict = rollout_mod.append_and_evict

        def losing_first_sink(cache, new_frames, expired):
            evict(cache, new_frames, expired)
            cache.frames.pop(0, None)
            return cache

        monkeypatch.setattr(rollout_mod, "append_and_evict", losing_first_sink)
        assert main(["rollout", "--seed", "1", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "step 1 (policy relaxed): frame 0 missing from cache" in err

    def test_scored_frame_missing_from_cache_names_step_and_policy(
        self, tmp_path, monkeypatch, capsys
    ):
        import relaxkv.rollout as rollout_mod
        from relaxkv import RolloutConfig, run_rollout

        rec = run_rollout(RolloutConfig(seed=1)).records[10]
        lost = next(s.frame_id for s in rec.scored if s.frame_id not in rec.memory.all_ids)
        schedule = rollout_mod.eviction_schedule

        def expiring_early(plan):
            expired = [[f for f in ids if f != lost] for ids in schedule(plan)]
            expired[9].append(lost)  # gone before step 10 scores it
            return expired

        monkeypatch.setattr(rollout_mod, "eviction_schedule", expiring_early)
        assert main(["rollout", "--seed", "1", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"step 10 (policy relaxed): frame {lost} missing from cache" in err

    @pytest.mark.parametrize(
        "setting",
        ["memory.scoring_layer=2", "memory.scoring_layer=5",
         "memory.scoring_layer=-1", "memory.fixed_history_position=-1",
         "memory.fixed_history_position=-3",
         "model.rotary_base=1", "model.rotary_base=0.5", "model.rotary_base=nan",
         "model.rotary_base=inf", "metrics.clip_frames=0", "metrics.clip_frames=-1",
         "memory.lambda=nan", "memory.lambda=inf", "memory.lambda=-1",
         "rollout.seed=-2", "--seed=-1"],
    )
    def test_out_of_range_index_rejected_at_config_time(self, tmp_path, capsys, setting):
        # before any step runs: no report and no output directory
        out = tmp_path / "out"
        option = [setting] if setting.startswith("--") else ["--set", setting]
        for command in (
            ["rollout"], ["profile"], ["sweep", "--grid", "memory.n_sink=1,2"],
            ["compare", "--policies", "relaxed,full"],
        ):
            args = [*command, "--out", str(out), "--set", "rollout.seed=1", *option]
            assert main(args) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error") and "step 0" not in err
            assert not out.exists()

    def test_sweep_grid_point_rejected_at_config_time(self, tmp_path, monkeypatch):
        import relaxkv.cli as cli_mod

        def no_run(cfg):
            raise AssertionError("a rollout ran before every point was checked")

        monkeypatch.setattr(cli_mod, "run_rollout", no_run)
        out = tmp_path / "out"
        args = ["sweep", "--seed", "1", "--out", str(out),
                "--grid", "metrics.clip_frames=15,0"]
        assert main(args) == 2
        assert not out.exists()

    def test_last_scoring_layer_accepted(self, tmp_path):
        args = ["rollout", "--seed", "1", "--out", str(tmp_path),
                "--set", "memory.scoring_layer=2", "--set", "model.layers=3"]
        assert main(args) == 0

    @pytest.mark.parametrize("position", [0, 3, 10])
    def test_bounded_cache_keeps_fixed_history_frames(self, tmp_path, position):
        args = ["rollout", "--seed", "1", "--out", str(tmp_path),
                "--set", "memory.bounded_cache=true",
                "--set", f"memory.fixed_history_position={position}",
                "--set", "rollout.total_frames=90"]
        assert main(args) == 0


class TestSweep:
    def test_sink_grid(self, tmp_path):
        assert (
            main(["sweep", "--seed", "2", "--out", str(tmp_path),
                  "--grid", "memory.n_sink=0,1,2,3"])
            == 0
        )
        rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 4
        assert [r["memory.n_sink"] for r in rows] == ["0", "1", "2", "3"]
        assert all(r["error"] == "" for r in rows)
        assert "# schema_version: 1" in csv_header_comments(tmp_path / "sweep.csv")

    def test_history_position_grid(self, tmp_path):
        assert (
            main(["sweep", "--seed", "2", "--out", str(tmp_path),
                  "--grid", "memory.fixed_history_position=0,1,2,3,4,5,6,7,8"])
            == 0
        )
        rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 9

    def test_conflicting_grid_keys(self, tmp_path):
        assert (
            main(["sweep", "--seed", "2", "--out", str(tmp_path),
                  "--grid", "memory.n_sink=0,1", "--grid", "memory.n_sink=2"])
            == 2
        )

    def test_json_format(self, tmp_path):
        assert (
            main(["sweep", "--seed", "2", "--out", str(tmp_path),
                  "--format", "json", "--grid", "memory.n_tail=0,1"])
            == 0
        )
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 2

    def test_no_grid_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--seed", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: sweep requires at least one --grid key\n"
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--set", "--grid"])
    def test_unknown_section_named_by_both_options(self, tmp_path, capsys, option):
        out = tmp_path / "out"
        args = ["sweep", "--seed", "1", "--out", str(out),
                "--grid", "memory.n_sink=1,2", option, "nosuch.key=1"]
        assert main(args) == 2
        assert capsys.readouterr().err == "config error: unknown config section [nosuch]\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_point_is_a_row(self, tmp_path, monkeypatch, fmt):
        """A rollout that fails makes its point's row hold the error and no
        metrics; the other points run and the sweep exits 0."""
        import relaxkv.cli as cli_mod

        real = cli_mod.run_rollout

        def flaky(cfg):
            if cfg.memory.n_sink == 1:
                raise ContractViolationError("injected failure")
            return real(cfg)

        monkeypatch.setattr(cli_mod, "run_rollout", flaky)
        args = ["sweep", "--seed", "1", "--out", str(tmp_path), "--format", fmt,
                "--set", "rollout.total_frames=30", "--grid", "memory.n_sink=0,1,2"]
        assert main(args) == 0
        if fmt == "csv":
            rows = read_csv(tmp_path / "sweep.csv")
        else:
            rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        metrics = ["drift", "repetition", "steady_attended_frames", "total_score_ops",
                   "cost_ratio"]
        assert [list(r) for r in rows] == [["memory.n_sink", "policy", *metrics, "error"]] * 3
        cell = str if fmt == "csv" else int
        assert [r["memory.n_sink"] for r in rows] == [cell(0), cell(1), cell(2)]
        assert all(r["policy"] == "relaxed" for r in rows)
        failed = rows[1]
        assert [failed[m] for m in metrics] == [""] * 5
        assert failed["error"] == "injected failure"
        for row in (rows[0], rows[2]):
            assert row["error"] == ""
            assert all(row[m] not in ("", None) for m in metrics)

    def test_error_while_summarizing_is_fatal(self, tmp_path, monkeypatch, capsys):
        """Only a failed rollout becomes an error row: an error raised while
        summarizing a run that finished exits 3, writing no table."""
        import relaxkv.cli as cli_mod

        def failing(trace, clip_frames):
            raise ContractViolationError("injected failure")

        monkeypatch.setattr(cli_mod, "run_summary", failing)
        args = ["sweep", "--seed", "1", "--out", str(tmp_path),
                "--set", "rollout.total_frames=30", "--grid", "memory.n_sink=0,1"]
        assert main(args) == 3
        assert "injected failure" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestProfile:
    def test_matches_rollout_costs(self, tmp_path):
        assert main(["profile", "--seed", "3", "--out", str(tmp_path)]) == 0
        assert main(["rollout", "--seed", "3", "--out", str(tmp_path)]) == 0
        prof = read_csv(tmp_path / "profile.csv")
        report = json.loads((tmp_path / "rollout.json").read_text())
        assert len(prof) == len(report["steps"])
        for prow, step in zip(prof, report["steps"]):
            assert int(prow["attended_frames"]) == step["attended_frames"]
            assert int(prow["score_ops"]) == step["score_ops"]

    @pytest.mark.parametrize(
        "policy", ["dense_window", "attention_sink", "full", "none",
                   "sink_only", "tail_only", "history_only"]
    )
    def test_other_policies_match_rollout(self, tmp_path, policy):
        args = ["--seed", "3", "--out", str(tmp_path), "--set",
                f"memory.policy={policy}"]
        assert main(["profile", *args]) == 0
        assert main(["rollout", *args]) == 0
        prof = read_csv(tmp_path / "profile.csv")
        report = json.loads((tmp_path / "rollout.json").read_text())
        for prow, step in zip(prof, report["steps"]):
            assert int(prow["attended_frames"]) == step["attended_frames"]


    def test_costs_are_exact_integers(self, tmp_path):
        # 2**31 tokens per frame: score ops pass 2**63, where int64 would wrap
        args = ["--seed", "1", "--set", "model.frame_tokens=2147483648",
                "--set", "rollout.total_frames=30", "--out", str(tmp_path)]
        assert main(["profile", *args]) == 0
        assert main(["profile", "--format", "json", *args]) == 0
        csv_rows = read_csv(tmp_path / "profile.csv")
        json_rows = json.loads((tmp_path / "profile.json").read_text())["rows"]
        csv_ints = [{key: int(value) for key, value in row.items()} for row in csv_rows]
        for rows in (csv_ints, json_rows):
            assert [row["key_tokens"] for row in rows[-2:]] == [15032385536] * 2
            assert [row["score_ops"] for row in rows[-2:]] == [774763251095801167872] * 2
            assert rows[0]["score_ops"] == 2 * 4 * (3 * 2**31) * (3 * 2**31)


class TestCompare:
    def test_baseline_vs_relaxed_cost_ratio(self, tmp_path):
        assert (
            main(["compare", "--seed", "4", "--out", str(tmp_path),
                  "--policies", "dense_window,relaxed"])
            == 0
        )
        rows = read_csv(tmp_path / "compare.csv")
        by_policy = {r["policy"]: r for r in rows}
        assert float(by_policy["relaxed"]["cost_ratio"]) == 3.0
        assert float(by_policy["dense_window"]["cost_ratio"]) == 1.0

    def test_same_policy_twice_degenerate_balance(self, tmp_path):
        assert (
            main(["compare", "--seed", "4", "--out", str(tmp_path),
                  "--policies", "relaxed,relaxed"])
            == 0
        )
        rows = read_csv(tmp_path / "compare.csv")
        assert rows[0]["drift"] == rows[1]["drift"]
        assert rows[0]["repetition"] == rows[1]["repetition"]
        assert float(rows[0]["balance"]) == float(rows[1]["balance"]) == 0.0

    def test_single_policy_rejected(self, tmp_path):
        assert (
            main(["compare", "--seed", "4", "--out", str(tmp_path),
                  "--policies", "relaxed"])
            == 2
        )

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["compare", "--seed", "8", "--policies",
                "dense_window,attention_sink,relaxed"]
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert (out_a / "compare.csv").read_bytes() == (out_b / "compare.csv").read_bytes()

    def test_too_few_frames_rejected_before_any_rollout(self, tmp_path, monkeypatch):
        import relaxkv.cli as cli_mod

        def no_run(cfg):
            raise AssertionError("a rollout ran before the clip check")

        monkeypatch.setattr(cli_mod, "run_rollout", no_run)
        out = tmp_path / "out"
        args = ["compare", "--seed", "1", "--out", str(out),
                "--policies", "full,relaxed", "--set", "metrics.clip_frames=31"]
        assert main(args) == 2
        assert not out.exists()

    def test_bad_policy_rejected_before_any_rollout(self, tmp_path, monkeypatch):
        import relaxkv.cli as cli_mod

        def no_run(cfg):
            raise AssertionError("a rollout ran before every policy was parsed")

        monkeypatch.setattr(cli_mod, "run_rollout", no_run)
        out = tmp_path / "out"
        args = ["compare", "--seed", "1", "--out", str(out),
                "--policies", "full,relaxed,bogus"]
        assert main(args) == 2
        assert not out.exists()


COMMANDS = {
    "rollout": ["rollout"],
    "profile": ["profile"],
    "sweep": ["sweep", "--grid", "memory.n_sink=1,2"],
    "compare": ["compare", "--policies", "dense_window,relaxed"],
}

MALFORMED_CONFIGS = {
    "key before any section": b"n_sink = 1\n[memory]\nn_tail = 1\n",
    "repeated section": b"[memory]\nn_sink = 1\n[memory]\nn_tail = 1\n",
    "repeated key": b"[memory]\nn_sink = 1\nn_sink = 2\n",
    "key without value": b"[memory]\nn_sink\n",
    "bad interpolation": b"[memory]\npolicy = 50%\n",
    "utf-16 byte order mark": b"\xff\xfe[memory]\nn_sink = 1\n",
}


class TestMalformedConfig:
    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("content", list(MALFORMED_CONFIGS))
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, content):
        config = tmp_path / "run.ini"
        config.write_bytes(MALFORMED_CONFIGS[content])
        out = tmp_path / "out"
        args = [*COMMANDS[command], "--seed", "1", "--config", str(config),
                "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(config) in err
        assert not out.exists()


# configparser would copy the keys of [DEFAULT] into every other section
DEFAULT_SECTION_CONFIGS = {
    "alone": b"[DEFAULT]\ntotal_frames = 30\n",
    "with empty rollout": b"[DEFAULT]\ntotal_frames = 30\n[rollout]\n",
    "with rollout and memory": b"[DEFAULT]\ntotal_frames = 30\n[rollout]\n[memory]\n",
}


class TestDefaultSection:
    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("content", list(DEFAULT_SECTION_CONFIGS))
    def test_rejected_as_unknown_section(self, tmp_path, capsys, command, content):
        config = tmp_path / "run.ini"
        config.write_bytes(DEFAULT_SECTION_CONFIGS[content])
        out = tmp_path / "out"
        args = [*COMMANDS[command], "--seed", "1", "--config", str(config),
                "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "config error: unknown config section [DEFAULT]\n"
        assert not out.exists()


class TestOutputPath:
    @pytest.fixture
    def no_runs(self, monkeypatch):
        import relaxkv.cli as cli_mod

        def no_run(*args):
            raise AssertionError("ran before --out was checked")

        # every computation a subcommand makes before writing, in every format
        for name in ("run_rollout", "profile_rows", "profile_columns"):
            monkeypatch.setattr(cli_mod, name, no_run)

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("below", ["", "sub", "sub/dir"])
    def test_file_in_path_rejected_before_any_rollout(
        self, tmp_path, capsys, no_runs, command, below
    ):
        blocker = tmp_path / "taken"
        blocker.write_text("keep me\n")
        out = blocker / below if below else blocker
        assert main([*COMMANDS[command], "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(blocker) in err
        assert blocker.read_text() == "keep me\n"

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_dangling_link_in_path_rejected_before_any_rollout(
        self, tmp_path, capsys, no_runs, command, below
    ):
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "gone")
        out = link / below if below else link
        assert main([*COMMANDS[command], "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --out {out}: {link} is not a directory\n"
        assert link.is_symlink() and os.readlink(link) == str(tmp_path / "gone")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link"]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unwritable_report_exits_2_naming_the_path(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        report = out / f"{command}.{'json' if command == 'rollout' else 'csv'}"
        report.mkdir(parents=True)  # a directory where the report goes
        args = [*COMMANDS[command], "--seed", "1", "--out", str(out),
                "--set", "rollout.total_frames=30", "--set", "metrics.clip_frames=15"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(report) in err
        assert report.is_dir() and not any(report.iterdir())


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """The parsed arguments of every sweep and compare call, which do not
        run."""
        import relaxkv.cli as cli_mod

        calls = []

        def record(args):
            calls.append(args)
            return 0

        for name in ("cmd_sweep", "cmd_compare"):
            monkeypatch.setattr(cli_mod, name, record)
        return calls

    def test_list_options_do_not_leak_into_the_next_call(self, seen):
        assert main(["sweep", "--seed", "1", "--set", "memory.n_sink=2",
                     "--grid", "memory.n_tail=1,2"]) == 0
        assert main(["sweep", "--seed", "1"]) == 0
        assert main(["compare", "--seed", "1", "--set", "memory.n_sink=2",
                     "--policies", "full,relaxed"]) == 0
        assert main(["compare", "--seed", "1"]) == 0
        assert [(args.set, args.grid) for args in seen[:2]] == [
            (["memory.n_sink=2"], ["memory.n_tail=1,2"]), ([], []),
        ]
        assert [(args.set, args.policies) for args in seen[2:]] == [
            (["memory.n_sink=2"], ["full,relaxed"]), ([], []),
        ]

    def test_runs_the_command_function_current_at_call_time(self, tmp_path, monkeypatch):
        import relaxkv.cli as cli_mod

        args = ["profile", "--seed", "1", "--out", str(tmp_path),
                "--set", "rollout.total_frames=30"]
        assert main(args) == 0
        replaced = []
        monkeypatch.setattr(cli_mod, "cmd_profile", lambda parsed: replaced.append(parsed) or 7)
        assert main(args) == 7
        assert [parsed.command for parsed in replaced] == ["profile"]

    def test_not_built_at_import(self):
        code = ("import relaxkv.cli as cli; "
                "assert cli.build_parser.cache_info().currsize == 0; "
                "cli.main(['profile', '--help'])")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: relaxkv profile")


@st.composite
def config_settings(draw):
    """--set overrides over the whole config space, valid or not, with few
    frames."""
    chunk = draw(st.integers(1, 4))
    n_history = draw(st.integers(0, 3))
    values = {
        "model.layers": draw(st.integers(1, 4)),
        "model.heads": draw(st.integers(1, 3)),
        "model.head_dim": draw(st.sampled_from([2, 4, 6, 8, 3])),
        "model.frame_tokens": draw(st.integers(1, 4)),
        "model.rotary_base": draw(st.floats(1.0001, 1e12)),
        "memory.policy": draw(st.sampled_from([p.value for p in Policy])),
        "memory.n_sink": draw(st.integers(0, 3)),
        "memory.n_history": n_history,
        "memory.n_tail": draw(st.integers(0, 3)),
        "memory.pool_size": draw(st.integers(max(0, n_history - 1), 5)),
        "memory.lambda": draw(st.floats(0.0, 1e300)),
        "memory.chunk_size": chunk,
        "memory.window_size": draw(st.integers(chunk - 1, chunk + 10)),
        "memory.fixed_history_position": draw(st.none() | st.integers(0, 8)),
        "memory.bounded_cache": draw(st.booleans()),
        "memory.scoring_layer": draw(st.none() | st.integers(0, 3)),
        "rollout.total_frames": draw(st.integers(1, 8)) * chunk + draw(st.sampled_from([0, 0, 1])),
    }
    return [f"{key}={'none' if v is None else str(v).lower()}" for key, v in values.items()]


@settings(max_examples=500, deadline=None)
@given(config_settings())
def test_every_config_writes_its_report_or_is_rejected_at_config_time(sets):
    """A valid config runs to a written report; an invalid one exits 2 with a
    config error before any rollout starts, leaving no output directory."""
    import relaxkv.cli as cli_mod

    rollouts = []

    def counted(cfg):
        rollouts.append(cfg)
        return run_rollout(cfg)

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        args = ["rollout", "--seed", "1", "--out", str(out),
                *(a for s in sets for a in ("--set", s))]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                mock.patch.object(cli_mod, "run_rollout", counted):
            code = main(args)
        if code == 0:
            assert len(rollouts) == 1
            assert json.loads((out / "rollout.json").read_text())["steps"]
        else:
            assert code == 2, err.getvalue()
            assert err.getvalue().startswith("config error")
            assert rollouts == []
            assert not out.exists()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 CPUs")
def test_rollout_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A report is byte-identical under 1 and 2 OpenBLAS threads, also where
    the attention products are large enough that OpenBLAS would split one
    over threads: ``full`` rollouts attend up to 4,800 key tokens, and
    ``dense_window`` at ``window_size=60`` up to 960."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    cases = {
        "relaxed-150": ["rollout.total_frames=150"],
        "full-150": ["rollout.total_frames=150", "memory.policy=full"],
        "full-300": ["rollout.total_frames=300", "memory.policy=full"],
        "dense_window60-300": [
            "rollout.total_frames=300", "memory.policy=dense_window", "memory.window_size=60",
        ],
    }
    for name, sets in cases.items():
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / name / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run(
                [sys.executable, "-m", "relaxkv", "rollout", "--seed", "3", "--out", str(out),
                 *(a for s in sets for a in ("--set", s))],
                env=env, check=True,
            )
            reports.append((out / "rollout.json").read_bytes())
        assert reports[0] == reports[1], name
