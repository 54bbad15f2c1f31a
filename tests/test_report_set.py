"""`tools/report_set.py --check REF` compares a written set with a reference
set byte for byte, and gives each differing rollout directory the benchmark's
tolerance verdict."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_set.py"


@pytest.fixture
def report_set(monkeypatch):
    # the tool pins the BLAS thread count when imported; undone after the test
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.spec_from_file_location("report_set", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_set(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


FILES = {
    "default/relaxed/rollout.json": b"{}\n",
    "default/relaxed/profile.csv": b"step\r\n0\r\n",
    "sweep/sweep.json": b"[]\n",
}


def test_same_sets_pass(tmp_path, capsys, report_set):
    out = write_set(tmp_path / "out", FILES)
    ref = write_set(tmp_path / "ref", FILES)
    assert report_set.check(out, ref) == 0
    captured = capsys.readouterr()
    assert captured.out == "" and "all 3 files match" in captured.err


def test_lists_every_differing_missing_and_extra_file(tmp_path, capsys, report_set):
    ref = write_set(tmp_path / "ref", FILES)
    changed = dict(FILES)
    changed["default/relaxed/profile.csv"] = b"step\n0\n"
    del changed["sweep/sweep.json"]
    changed["compare/compare.csv"] = b"policy\r\n"
    out = write_set(tmp_path / "out", changed)
    assert report_set.check(out, ref) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "missing sweep/sweep.json",
        "extra compare/compare.csv",
        "differs default/relaxed/profile.csv",
    ]
    assert "3 of 4 files do not match" in captured.err


def test_shows_the_first_differing_line_of_each_differing_file(tmp_path, capsys, report_set):
    ref = write_set(tmp_path / "ref", FILES)
    changed = dict(FILES)
    changed["default/relaxed/profile.csv"] = b"step\r\n1\r\n"
    changed["default/relaxed/rollout.json"] = b"{" + b"x" * 70 + b"}\n"
    out = write_set(tmp_path / "out", changed)
    assert report_set.check(out, ref) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == [
        "default/relaxed/profile.csv line 2: ref b'0\\r\\n', out b'1\\r\\n'",
        "default/relaxed/rollout.json line 1: ref b'{}\\n', out b'{" + "x" * 59 + "'...",
    ]


ROLLOUT = (
    b'{\n  "steps": [{"history_ids": [7], "scored": [{"relaxation": 0.1234567890123456}]}],\n'
    b'  "frame_features": [[0.5, -1.25]]\n}\n'
)


@pytest.mark.parametrize(
    "changed, verdict, fields",
    [
        (ROLLOUT.replace(b"0.1234567890123456", b"0.1234567890123457"),
         "default/relaxed/ tolerance check: within tolerance",
         "default/relaxed/rollout.json values differ in: steps.scored.relaxation"),
        (ROLLOUT.replace(b"[7]", b"[8]"),
         "default/relaxed/ tolerance check: rollout.json.steps[0].history_ids[0]: 8 != 7",
         None),
    ],
    ids=["last-digit", "history-id"],
)
def test_differing_rollout_directory_gets_a_tolerance_verdict(
    tmp_path, capsys, report_set, changed, verdict, fields
):
    """A directory within tolerance also names the fields whose values moved."""
    ref = write_set(tmp_path / "ref", {**FILES, "default/relaxed/rollout.json": ROLLOUT})
    out = write_set(tmp_path / "out", {**FILES, "default/relaxed/rollout.json": changed})
    assert report_set.check(out, ref) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["differs default/relaxed/rollout.json"]
    err = captured.err.splitlines()
    assert verdict in err
    assert [line for line in err if "values differ in" in line] == ([fields] if fields else [])


def test_directory_without_a_rollout_gets_no_verdict(tmp_path, capsys, report_set):
    ref = write_set(tmp_path / "ref", FILES)
    out = write_set(tmp_path / "out", {**FILES, "sweep/sweep.json": b"[1]\n"})
    assert report_set.check(out, ref) == 1
    assert "tolerance check" not in capsys.readouterr().err


def test_differing_fields_drop_list_indices(report_set):
    ref = {"steps": [{"ids": [1, 2], "s": [{"x": 0.5, "y": 1}]}], "m": {"a": None}, "f": [[1.0]]}
    out = {"steps": [{"ids": [1], "s": [{"x": 0.25, "y": 1}]}], "m": {"b": None}, "f": [[1.0]]}
    assert report_set.differing_fields(ref, out) == {"steps.ids", "steps.s.x", "m"}
    assert report_set.differing_fields(ref, ref) == set()
    assert report_set.differing_fields(1, 1.0) == {"(top level)"}


SWEEP_CSV = (
    b"# schema_version: 1\r\npolicy,drift,total_score_ops\r\n"
    b"relaxed,0.1234567890123456,21473280\r\n"
)
SWEEP_JSON = b'{"rows": [{"policy": "relaxed", "drift": 0.25, "total_score_ops": 21473280}]}\n'


@pytest.mark.parametrize(
    "name, changed, verdict",
    [
        ("sweep/sweep.csv", SWEEP_CSV.replace(b"3456,", b"3457,"), "within tolerance"),
        ("sweep/sweep.csv", SWEEP_CSV.replace(b"0.1234567890123456", b"0.1235"),
         "[2][1]: 0.1235 outside tolerance of 0.1234567890123456"),
        ("sweep/sweep.csv", SWEEP_CSV.replace(b"280", b"281"), "[2][2]: '21473281' != '21473280'"),
        ("sweep/sweep.json", SWEEP_JSON.replace(b"0.25", b"0.2500000000000001"),
         "within tolerance"),
        ("sweep/sweep.json", SWEEP_JSON.replace(b"280", b"281"),
         "rows[0].total_score_ops: 21473281 != 21473280"),
        ("sweep/sweep.json", SWEEP_JSON.replace(b"0.25", b"1"), "rows[0].drift: 1 != 0.25"),
        ("sweep/sweep.json", b"[\n", "unreadable"),
    ],
    ids=["csv-last-digit", "csv-float", "csv-int", "json-last-digit", "json-int",
         "json-type", "json-unreadable"],
)
def test_differing_table_gets_a_table_verdict(
    tmp_path, capsys, report_set, name, changed, verdict
):
    """A sweep or compare table that differs is still a difference, and gets a
    verdict: floats within tolerance, every other cell exactly."""
    files = {**FILES, "sweep/sweep.csv": SWEEP_CSV, "sweep/sweep.json": SWEEP_JSON}
    ref = write_set(tmp_path / "ref", files)
    out = write_set(tmp_path / "out", {**files, name: changed})
    assert report_set.check(out, ref) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"differs {name}"]
    [line] = [line for line in captured.err.splitlines() if "table check" in line]
    assert line.startswith(f"{name} table check: ") and verdict in line
