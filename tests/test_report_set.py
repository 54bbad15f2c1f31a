"""`tools/report_set.py --check REF` compares a written set with a reference
set byte for byte."""

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
