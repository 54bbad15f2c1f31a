"""The JSON report writer emits exactly the bytes of json.dumps(indent=2),
whether orjson writes the payload or the writer falls back to json, and the
profile CSV exactly the bytes of csv.writer."""

import contextlib
import csv
import datetime
import enum
import io
import json
import math
import random
import tempfile
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

import relaxkv.cli as cli
from relaxkv import Policy, RolloutConfig
from relaxkv.cli import main, profile_rows
from relaxkv.errors import ContractViolationError

from test_attention import TINY, rollout_configs

POLICIES = ["dense_window", "attention_sink", "relaxed", "none", "sink_only",
            "tail_only", "history_only", "full"]


def plain(obj):
    """``obj`` with every numpy array in it replaced by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(plain, obj))
    return obj


def dumps_indented(obj) -> str:
    """What the writer writes for ``obj``: json's bytes of its plain payload."""
    return json.dumps(plain(obj), indent=2) + "\n"


def written(obj, tmp_path) -> str:
    path = tmp_path / "out.json"
    cli._write_json(path, obj)
    return path.read_text()


floats = st.floats() | st.sampled_from(
    [-0.0, 0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308,
     float("nan"), float("inf"), float("-inf")]
)
texts = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\n\t", "\x7f", "é☃\U0001f600", ""])
scalars = (
    st.none() | st.booleans() | floats | texts
    | st.integers() | st.integers(min_value=2**63 - 2, max_value=2**70)
    | st.integers(min_value=-(2**70), max_value=-(2**63))
)
# every key type json converts: str, int, float, bool and None
keys = texts | st.integers() | floats | st.booleans() | st.none()
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(keys, children, max_size=5)
    ),
    max_leaves=40,
)


@dataclass
class Point:
    """orjson writes a dataclass as an object; json rejects it."""

    x: int
    y: int


class Color(enum.Enum):
    """orjson writes a member of a plain Enum as its value; json rejects it."""

    RED = 1


class TestWriterBytes:
    @settings(max_examples=200, deadline=None)
    @given(obj=trees)
    def test_matches_json_dumps_indent_2(self, obj):
        assert cli._json_bytes(obj).decode() + "\n" == dumps_indented(obj)

    @pytest.mark.parametrize(
        "obj",
        [{}, [], (), [[]], {"a": {}}, [(), {}], [[], [[]], {"k": []}],
         {1: [1], 2.5: {"x": ()}, True: [None], None: [-0.0], False: {}},
         [float("nan"), float("inf"), float("-inf"), 5e-324, 1e16, 2**64]],
        ids=repr,
    )
    def test_empty_and_nested_containers(self, tmp_path, obj):
        assert written(obj, tmp_path) == dumps_indented(obj)

    @pytest.mark.parametrize(
        "obj",
        [{(1, 2): 0}, {(1, 2): [0]}, [object()], {"a": [{1}]}, {"a": {"b": b"x"}},
         [Point(1, 2)], {"at": datetime.datetime(2020, 1, 2)}, [Color.RED]],
        ids=["tuple-key", "tuple-key-nested", "object", "set", "bytes",
             "dataclass", "datetime", "enum"],
    )
    def test_unencodable_raises_type_error_like_json(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError):
            cli._json_bytes(obj)


class Float(float):
    """A float subclass: json writes it with float.__repr__, orjson rejects it."""


# the floats that orjson spells otherwise than repr, or not at all
edge_floats = st.sampled_from(
    [5e-324, 2.2250738585072014e-308, 1e-310, -0.0, 0.0, 1e-05, -1.2e-05,
     9.999999999999999e-05, 1e-4, 1e-7, 1e16, -1.5e16, 1.7976931348623157e308]
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | edge_floats
float_rows = st.lists(finite_floats, min_size=1, max_size=6)
float_rows = float_rows | float_rows.map(tuple)
# rows that are not all finite exact floats
other_rows = (
    st.just([])
    | st.lists(finite_floats | st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), Float(1e-05), 0, 1, 2**64, True, False]
    ), min_size=1, max_size=6)
)
matrices = st.lists(float_rows, min_size=1, max_size=5) | st.lists(
    float_rows | other_rows, min_size=1, max_size=5
)
matrices = matrices | matrices.map(tuple)
nested_matrices = matrices | st.recursive(
    matrices,
    lambda inner: st.dictionaries(st.text(max_size=3), inner | finite_floats, min_size=1,
                                  max_size=3),
    max_leaves=4,
)


class TestFloatMatrixBytes:
    @settings(max_examples=300, deadline=None)
    @given(obj=nested_matrices)
    def test_matches_json_dumps_indent_2(self, obj):
        assert cli._json_bytes(obj).decode() + "\n" == dumps_indented(obj)


def needs_json(obj) -> bool:
    """Whether ``obj`` holds what orjson rejects or writes otherwise than json:
    a non-finite float, an int beyond 64 bits, a non-str key, a float
    subclass, a tuple, or non-ASCII or DEL text."""
    if isinstance(obj, tuple):
        return True
    if isinstance(obj, list):
        return any(map(needs_json, obj))
    if isinstance(obj, dict):
        return any(
            not isinstance(k, str) or needs_json(k) or needs_json(v) for k, v in obj.items()
        )
    if isinstance(obj, float):
        return type(obj) is not float or not math.isfinite(obj)
    if isinstance(obj, int):
        return not -(2**63) <= obj < 2**64
    if isinstance(obj, str):
        return not obj.isascii() or "\x7f" in obj
    return False


@contextlib.contextmanager
def fallbacks():
    """The objects the CLI passes to ``json.dumps(..., indent=2)`` while the
    context is open, in call order."""
    seen = []

    def dumps(obj, **kwargs):
        if kwargs.get("indent") == 2:
            seen.append(obj)
        return json.dumps(obj, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "json", SimpleNamespace(dumps=dumps))
        yield seen


class TestWriterPath:
    @settings(max_examples=300, deadline=None)
    @given(obj=trees | st.lists(trees | floats.map(Float), max_size=3) | nested_matrices)
    def test_falls_back_exactly_for_what_orjson_writes_otherwise(self, obj):
        with fallbacks() as fell_back:
            cli._json_bytes(obj)
        assert len(fell_back) == needs_json(obj)

    @pytest.mark.parametrize(
        "obj, fallback",
        [([1.0, float("nan")], True), ([float("inf")], True), ([float("-inf")], True),
         ([2**64], True), ([2**64 - 1], False), ([-(2**63) - 1], True), ([-(2**63)], False),
         ({1: 0}, True), ([Float(1.5)], True), ([(1,)], True), ([[]], False),
         (["é"], True), (["\x7f"], True), ({"\x7f": 0}, True), (["~\x00\n"], False),
         ({"a": [1e16, 1e-05, -0.0, 5e-324, "1e16", "x 1e-7", None, True]}, False),
         ({"b 1e16": 0.00001, "c": "y 0.00001"}, False),
         ({'a": b': 1, 'q\\"': [2], "\\": {'\\": ': 3}}, False)],
        ids=repr,
    )
    def test_falls_back_for_each_kind(self, obj, fallback):
        with fallbacks() as fell_back:
            text = cli._json_bytes(obj).decode()
        assert text + "\n" == dumps_indented(obj)
        assert fell_back == ([obj] if fallback else [])


@contextlib.contextmanager
def parsed():
    """Every value the writer parses with ``orjson.loads`` while the context
    is open, in call order."""
    seen, loads = [], orjson.loads

    def parsing(text):
        seen.append(loads(text))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orjson, "loads", parsing)
        yield seen


def large_payload() -> dict:
    """A report-like dict with two list entries of several blocks each: rows
    of floats, some of them respelled, and records of ints. Some keys hold
    what json and orjson escape alike: ``": ``, ``\\"`` and ``\\``."""
    rng = random.Random(0)
    edges = [1e16, 1e-05, 5e-324, -0.0]
    rows = [[rng.random() for _ in range(7)] + [edges[i % 4]] for i in range(1000)]
    records = [{"frame_id": i, 'a": b': rng.randrange(2**64), "ids": [i, i + 1]}
               for i in range(2000)]
    return {"schema_version": 1, 'q\\"': {"\\": 0}, "rows": rows, '\\ ": ': records,
            "note": "0.00001 1e16"}


LARGE = large_payload()
LIST_KEYS = ["rows", '\\ ": ']


def run_starts(obj, key) -> list[int]:
    """The index of the first item of each run of ``obj[key]`` the writer
    parses, from the second run on."""
    with parsed() as seen:
        cli._json_bytes(obj)
    items, starts = obj[key], [0]
    for value in seen:
        at = starts[-1]
        if isinstance(value, list) and value and value == items[at : at + len(value)]:
            starts.append(at + len(value))
    assert starts[-1] == len(items)
    return starts[1:-1]


def planted(items: list, index: int, kind) -> list:
    """``items`` with item ``index`` replaced by a copy that holds ``kind``:
    a row's second value, or a record's second id, or, for ``tuple``, the row
    or the record's ids as a tuple."""
    item = items[index]
    if isinstance(item, list):
        item = tuple(item) if kind is tuple else [item[0], kind, *item[2:]]
    else:
        ids = item["ids"]
        item = {**item, "ids": tuple(ids) if kind is tuple else [ids[0], kind]}
    return [*items[:index], item, *items[index + 1 :]]


class TestBlockedReadBack:
    """A dict is read back one entry at a time, and a long list entry one run
    of whole items at a time, with the same bytes and the same fallbacks as a
    read-back of the whole output."""

    def test_large_payload_is_read_back_in_bounded_runs(self):
        with fallbacks() as fell_back, parsed() as seen:
            text = cli._json_bytes(LARGE)
        assert text.decode() + "\n" == dumps_indented(LARGE)
        assert fell_back == []
        for key in LIST_KEYS:
            assert len(run_starts(LARGE, key)) >= 2
        # nothing parsed at once is much larger than a block
        assert max(len(orjson.dumps(value)) for value in seen) < 2 * cli._BLOCK

    @pytest.mark.parametrize("key", LIST_KEYS, ids=["rows", "records"])
    @pytest.mark.parametrize("place", ["first-block", "middle-block", "last-item", "at-cut"])
    @pytest.mark.parametrize(
        "kind", [float("nan"), float("inf"), tuple, Float(0.25), 2**64],
        ids=["nan", "inf", "tuple", "float-subclass", "2**64"],
    )
    def test_planted_value_falls_back(self, key, place, kind):
        items, starts = LARGE[key], run_starts(LARGE, key)
        index = {"first-block": 1, "middle-block": (starts[0] + starts[1]) // 2,
                 "last-item": len(items) - 1, "at-cut": starts[0]}[place]
        obj = {**LARGE, key: planted(items, index, kind)}
        with fallbacks() as fell_back:
            text = cli._json_bytes(obj)
        assert text.decode() + "\n" == dumps_indented(obj)
        assert needs_json(obj)
        assert fell_back == [obj]

    @settings(max_examples=200, deadline=None)
    # below 2 bytes the text of an empty list, "[]", would be cut
    @given(obj=st.dictionaries(texts, trees | nested_matrices, min_size=1, max_size=4),
           block=st.integers(2, 256))
    def test_small_blocks_match_json_dumps(self, obj, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_BLOCK", block)
            with fallbacks() as fell_back:
                text = cli._json_bytes(obj)
        assert text.decode() + "\n" == dumps_indented(obj)
        assert len(fell_back) == needs_json(obj)


# the values orjson spells otherwise than repr, next to those it spells alike,
# and the ones it cannot write
array_floats = finite_floats | st.sampled_from(
    [-0.0, 5e-324, 9.99e-5, 1e-4, 1e16, 1e300, float("nan"), float("inf"), float("-inf")]
)


@st.composite
def arrays(draw):
    """A numpy array of 0 to 20 values: 0-size or not, 1-D or 2-D, C- or
    Fortran-ordered, or a slice of every other column; float64 mostly."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    values = draw(st.lists(array_floats, min_size=rows * cols, max_size=rows * cols))
    a = np.array(values, dtype=np.float64).reshape(rows, cols)
    layout = draw(st.sampled_from(["2-D", "1-D", "Fortran", "sliced"]))
    if layout == "1-D":
        a = a.reshape(-1)
    elif layout == "Fortran":
        a = np.asfortranarray(a)
    elif layout == "sliced":
        a = a[:, ::2]
    dtype = draw(st.sampled_from([np.float64] * 4 + [np.float32, np.int64]))
    if dtype is not np.float64:
        a = np.clip(np.nan_to_num(a), -1e6, 1e6).astype(dtype, order="A")
    return a


def array_needs_json(a: np.ndarray) -> bool:
    """The writer's rule: orjson writes an array as json writes its
    ``tolist()`` only when it is float64, C-contiguous and finite."""
    return a.dtype != np.float64 or not a.flags.c_contiguous or not np.isfinite(a).all()


class TestArrayEntries:
    """A dict entry whose value is a numpy array is written by orjson without
    a read-back when the array is float64, C-contiguous and finite, with
    the bytes json writes for its ``tolist()``, and by json otherwise."""

    @settings(max_examples=300, deadline=None)
    @given(obj=st.dictionaries(texts, arrays() | nested_matrices, min_size=1, max_size=4))
    def test_matches_json_dumps_of_the_lists(self, obj):
        with fallbacks() as fell_back:
            text = cli._json_bytes(obj)
        assert text.decode() + "\n" == json.dumps(plain(obj), indent=2) + "\n"
        rule = any(
            (array_needs_json(v) if isinstance(v, np.ndarray) else needs_json(v))
            or needs_json(k)
            for k, v in obj.items()
        )
        assert len(fell_back) == rule

    @settings(max_examples=100, deadline=None)
    @given(obj=st.lists(arrays() | finite_floats, max_size=3)
           | st.dictionaries(texts, st.lists(arrays(), max_size=2), max_size=3))
    def test_arrays_below_the_top_level_match_json_dumps(self, obj):
        assert cli._json_bytes(obj).decode() + "\n" == json.dumps(plain(obj), indent=2) + "\n"

    @pytest.mark.parametrize(
        "values",
        [[0.5, -0.0, 1e-4, 9.9e15, 1e300 / 1e285], [0.5, 9.99e-5], [5e-324], [1e16],
         [-1e300], [0.0, -0.0], []],
        ids=repr,
    )
    def test_array_values_are_respelled_without_json(self, tmp_path, values):
        obj = {"a": [1e-05, 2], "features": np.array([values, values]), "z": "1e16 0.00001"}
        with fallbacks() as fell_back:
            text = written(obj, tmp_path)
        assert fell_back == []
        assert text == dumps_indented(obj)

    def test_rollout_features_are_not_read_back(self):
        """The features of a report reach the writer as their float64 array
        and are never parsed."""
        report = cli.trace_report(
            cli.run_rollout(RolloutConfig(total_frames=30, seed=2)),
            cli.load_settings(None, ["rollout.total_frames=30"], 2),
        )
        features = report["frame_features"]
        assert features.dtype == np.float64 and features.flags.c_contiguous
        with parsed() as seen, fallbacks() as fell_back:
            text = cli._json_bytes(report)
        assert fell_back == [] and text.decode() + "\n" == dumps_indented(report)
        assert features.tolist() not in seen


@pytest.fixture
def payloads(monkeypatch):
    """Every (path, payload) the CLI writes as JSON, in call order."""
    seen = []
    write = cli._write_json

    def recording(path, payload):
        seen.append((path, payload))
        write(path, payload)

    monkeypatch.setattr(cli, "_write_json", recording)
    return seen


def assert_reports_match(seen):
    assert seen
    for path, payload in seen:
        assert path.read_text() == dumps_indented(payload)


class TestReportBytes:
    """Every report the CLI writes as JSON is written by orjson, never by the
    json fallback."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_rollout_report(self, tmp_path, payloads, policy):
        args = ["rollout", "--seed", "5", "--out", str(tmp_path),
                "--set", f"memory.policy={policy}"]
        with fallbacks() as fell_back:
            assert main(args) == 0
        assert fell_back == []
        assert_reports_match(payloads)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_profile_report(self, tmp_path, payloads, policy):
        args = ["profile", "--seed", "5", "--format", "json", "--out", str(tmp_path),
                "--set", f"memory.policy={policy}"]
        with fallbacks() as fell_back:
            assert main(args) == 0
        assert fell_back == []
        assert_reports_match(payloads)

    def test_long_relaxed_rollout_report(self, tmp_path, payloads):
        """Its steps are read back in many runs, and its frame features are
        written from their array."""
        args = ["rollout", "--seed", "5", "--out", str(tmp_path),
                "--set", "memory.policy=relaxed", "--set", "rollout.total_frames=1500"]
        with fallbacks() as fell_back:
            assert main(args) == 0
        assert fell_back == []
        assert_reports_match(payloads)

    def test_sweep_and_compare_reports(self, tmp_path, payloads):
        grid = "memory.policy=" + ",".join(POLICIES)
        with fallbacks() as fell_back:
            assert main(["sweep", "--seed", "5", "--format", "json", "--out",
                         str(tmp_path), "--grid", grid,
                         "--grid", "memory.n_sink=0,2"]) == 0
            assert main(["compare", "--seed", "5", "--format", "json", "--out",
                         str(tmp_path), "--policies", ",".join(POLICIES)]) == 0
        assert fell_back == []
        assert [path.name for path, _ in payloads] == ["sweep.json", "compare.json"]
        assert_reports_match(payloads)


def config_sets(cfg) -> list[str]:
    """--set options that resolve to ``cfg``."""
    sets = [f"rollout.total_frames={cfg.total_frames}", f"rollout.seed={cfg.seed}"]
    for section, params in (("memory", cfg.memory), ("model", cfg.model)):
        for f in fields(params):
            value = getattr(params, f.name)
            key = "lambda" if f.name == "lam" else f.name
            sets.append(f"{section}.{key}={getattr(value, 'value', value)}")
    return sets


def csv_writer_profile(cfg, settings_: dict) -> bytes:
    """The profile CSV as csv.writer renders it: two preamble lines, the header
    and ``profile_rows(cfg)``."""
    header, rows = profile_rows(cfg)
    buf = io.StringIO()
    buf.write("# schema_version: 1\n")
    buf.write(f"# config: {json.dumps(cli.resolved_config_dict(settings_))}\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


class TestProfileCsvBytes:
    @pytest.mark.parametrize("policy", list(Policy))
    @settings(max_examples=25, deadline=None)
    @given(cfg=rollout_configs())
    # 2**31 tokens per frame: score ops pass 2**63
    @example(cfg=RolloutConfig(model=replace(TINY, frame_tokens=2**31), total_frames=30))
    def test_matches_csv_writer(self, policy, cfg):
        cfg = replace(cfg, memory=replace(cfg.memory, policy=policy))
        overrides = config_sets(cfg)
        settings_ = cli.load_settings(None, overrides, None)
        assert cli.build_config(settings_) == cfg
        options = [arg for item in overrides for arg in ("--set", item)]
        with tempfile.TemporaryDirectory() as out:
            assert main(["profile", "--out", out, *options]) == 0
            written_bytes = (Path(out) / "profile.csv").read_bytes()
        assert written_bytes == csv_writer_profile(cfg, settings_)


# every digit count's first and last value, the ends of int32 and int64, and
# 2**32, which int32 would write as 0
EDGE_INTS = [0, 9, *(10**k + d for k in range(1, 20) for d in (-1, 0)), 2**31 - 1, 2**31,
             2**32, 2**63 - 1, 2**63, 10**40]


@st.composite
def int_columns(draw):
    """1 to 9 columns of 0 to 40 non-negative ints, each an int64 array or an
    object array of Python ints."""
    rows = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(1, 9))):
        if draw(st.booleans()):
            cells = st.integers(0, 2**63 - 1) | st.sampled_from([n for n in EDGE_INTS if n < 2**63])
            dtype = np.int64
        else:
            cells = st.integers(0, 10**40) | st.sampled_from(EDGE_INTS)
            dtype = object
        columns.append(np.array(draw(st.lists(cells, min_size=rows, max_size=rows)), dtype))
    return columns


def csv_writer_body(columns) -> bytes:
    buf = io.StringIO()
    csv.writer(buf).writerows(zip(*(col.tolist() for col in columns)))
    return buf.getvalue().encode()


class TestIntCsvBody:
    @settings(max_examples=200, deadline=None)
    @given(columns=int_columns())
    # a column per digit count up to 41: every edge value of at most that many
    # digits, 0 for the others; int64 while all fit
    @example(columns=[
        np.array([n if n < 10**w else 0 for n in EDGE_INTS], np.int64 if w < 19 else object)
        for w in range(1, 42)
    ])
    def test_matches_csv_writer(self, columns):
        assert cli._int_csv_body(columns) == csv_writer_body(columns)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_empty_table_writes_nothing(self, dtype):
        assert cli._int_csv_body([np.array([], dtype), np.array([], dtype)]) == b""

    @pytest.mark.parametrize(
        "column",
        [np.array([3, -1], np.int64), np.array([3, -1], object),
         np.array([2**63, -(10**40)], object)],
        ids=["int64", "object", "object-beyond-int64"],
    )
    def test_negative_cell_raises(self, column):
        with pytest.raises(ContractViolationError):
            cli._int_csv_body([np.array([1, 2]), column])
