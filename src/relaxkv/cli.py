"""Batch front-end: rollout / sweep / profile / compare subcommands.

Config files are INI-style with one section per module; every key can be
overridden on the command line with --set section.key=value. Reports embed
the fully resolved config and a schema version, and are byte-identical for
identical (config, seed), at any OpenBLAS thread count. A JSON report holds
exactly the bytes of ``json.dumps(report, indent=2)`` (numpy arrays as their
``tolist()``), written by one orjson call that is read back to check it, one
entry or one block of a list's items at a time (an array entry is checked by
dtype, layout and finiteness instead), or by json where orjson would differ. A
CSV table holds exactly the bytes of ``csv.writer``; the profile table, all
non-negative ints, is written from the memory plan's columns by one numpy
digit kernel. The argument parser is built on the first ``main`` call and
shared by every later call in the process.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import io
import itertools
import json
import operator
import re
import sys
from collections.abc import Sequence
from dataclasses import fields
from pathlib import Path

import numpy as np
import orjson

from .attention import count_step_cost, step_costs
from .config import MemoryConfig, ModelParams, Policy, RolloutConfig
from .errors import ConfigError, ContractViolationError, RelaxKVError
from .memory import StructuredMemory
from .memory import (  # noqa: F401  (perfbench/spans.py wraps them by name here)
    partition, restrict_candidates, sample_pool,
)
from .metrics import (
    DEFAULT_CLIP_FRAMES,
    balance,
    cost_ratio,
    steady_cost,
    trace_metrics,
)
from .rollout import RolloutTrace, memory_plan, run_rollout

SCHEMA_VERSION = 1

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _optional_int(raw: str) -> int | None:
    return None if raw.lower() in ("", "none") else int(raw)


# field annotation -> parser of the raw config string
_PARSERS = {
    "Policy": Policy,
    "int": int,
    "float": float,
    "bool": lambda v: _BOOL[v.lower()],
    "int | None": _optional_int,
}
# config key of a dataclass field whose name differs from it
_KEY_OF_FIELD = {"lam": "lambda"}


def _keyed_fields(cls, skip=()) -> list:
    """(config key, field) for each field of a config section's dataclass."""
    return [
        (_KEY_OF_FIELD.get(f.name, f.name), f) for f in fields(cls) if f.name not in skip
    ]


_SECTIONS = {
    "memory": _keyed_fields(MemoryConfig),
    "model": _keyed_fields(ModelParams),
    "rollout": _keyed_fields(RolloutConfig, skip=("memory", "model")),
}
_SCHEMA = {sec: {key: _PARSERS[f.type] for key, f in fs} for sec, fs in _SECTIONS.items()}
_DEFAULTS = {sec: {key: f.default for key, f in fs} for sec, fs in _SECTIONS.items()}
_DEFAULTS["rollout"]["seed"] = None  # every run names its seed
_SCHEMA["metrics"] = {"clip_frames": int}
_DEFAULTS["metrics"] = {"clip_frames": DEFAULT_CLIP_FRAMES}


def _assignment(item: str, usage: str) -> tuple[str, str, str]:
    """(section, key, raw value) of a ``section.key=value`` item; ``usage``
    opens the message for an item of another form."""
    dotted, eq, raw = item.partition("=")
    section, dot, key = dotted.partition(".")
    if not (eq and dot):
        raise ConfigError(f"{usage}, got {item!r}")
    if section not in _SCHEMA:
        raise ConfigError(f"unknown config section [{section}]")
    return section, key, raw


def _parse_value(section: str, key: str, raw: str):
    try:
        parser = _SCHEMA[section][key]
    except KeyError:
        raise ConfigError(f"unknown config key {section}.{key}") from None
    try:
        return parser(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc


def load_settings(
    config_path: str | None, overrides: list[str], seed: int | None
) -> dict:
    """Resolve defaults <- config file <- --set overrides <- --seed."""
    settings = {sec: dict(vals) for sec, vals in _DEFAULTS.items()}
    if config_path:
        # no section header can name "", so a [DEFAULT] section is read as an
        # ordinary one, and rejected below, instead of filling every section
        parser = configparser.ConfigParser(default_section="")
        try:
            read = parser.read(config_path)
            # items() interpolates, so a stray '%' raises here
            sections = {sec: parser.items(sec) for sec in parser.sections()}
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {config_path}: {exc}") from None
        if not read:
            raise ConfigError(f"cannot read config file {config_path}")
        for section, items in sections.items():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in items:
                settings[section][key] = _parse_value(section, key, raw)
    for item in overrides:
        section, key, raw = _assignment(item, "--set expects section.key=value")
        settings[section][key] = _parse_value(section, key, raw)
    if seed is not None:
        settings["rollout"]["seed"] = seed
    if settings["rollout"]["seed"] is None:
        raise ConfigError("a seed is required (--seed or rollout.seed)")
    return settings


def build_config(settings: dict) -> RolloutConfig:
    # here rather than in load_settings, so sweep grid points are checked too
    if settings["metrics"]["clip_frames"] < 1:
        raise ConfigError("metrics.clip_frames must be >= 1")
    mem = dict(settings["memory"])
    mem["lam"] = mem.pop("lambda")
    return RolloutConfig(
        memory=MemoryConfig(**mem),
        model=ModelParams(**settings["model"]),
        **settings["rollout"],
    )


def _point(settings: dict, values: dict) -> dict:
    """A copy of ``settings`` with the value of each (section, key) in
    ``values`` replaced."""
    point = {sec: dict(vals) for sec, vals in settings.items()}
    for (section, key), value in values.items():
        point[section][key] = value
    return point


def _plain(value):
    """A config value as a report writes it: a Policy by its name."""
    return value.value if isinstance(value, Policy) else value


def resolved_config_dict(settings: dict) -> dict:
    return {
        section: {k: _plain(v) for k, v in sorted(settings[section].items())}
        for section in sorted(settings)
    }


def canonical_baseline_cost(cfg: RolloutConfig):
    """Dense sliding-window steady-state cost: (window - chunk) retained frames
    plus the current chunk."""
    mem = StructuredMemory(
        tail_ids=list(range(cfg.memory.window_size - cfg.memory.chunk_size))
    )
    return count_step_cost(
        mem, cfg.memory.chunk_size, cfg.model.frame_tokens, cfg.model
    )


# ---------------------------------------------------------------------------
# report construction


def _scored_dict(s):
    return {
        "frame_id": s.frame_id,
        "stability": s.stability,
        "redundancy": s.redundancy,
        "relaxation": s.relaxation,
    }


def run_summary(trace: RolloutTrace, clip_frames: int) -> dict:
    """The summary of one run, the rollout report's ``metrics``: drift and
    repetition over its clips (None with fewer than 2), the dense window's
    steady cost over the run's, the run's steady attended frames and its score
    ops over all steps."""
    steady = steady_cost(trace)
    return {
        **trace_metrics(trace, clip_frames),
        "cost_ratio": cost_ratio(canonical_baseline_cost(trace.config), steady),
        "steady_attended_frames": steady.attended_frames,
        "total_score_ops": sum(r.cost.score_ops for r in trace.records),
    }


# the columns of run_summary that the sweep and the compare tables write
SWEEP_METRICS = (
    "drift", "repetition", "steady_attended_frames", "total_score_ops", "cost_ratio",
)
COMPARE_METRICS = ("drift", "repetition", "steady_attended_frames", "cost_ratio")


def trace_report(trace: RolloutTrace, settings: dict) -> dict:
    U = trace.config.memory.chunk_size
    steps = []
    for rec in trace.records:
        mem_ids = rec.memory.all_ids
        positions = range(rec.first_position, rec.first_position + len(mem_ids) + U)
        steps.append(
            {
                "step": rec.step,
                "generated_before": rec.generated_before,
                "sink_ids": rec.memory.sink_ids,
                "history_ids": rec.memory.history_ids,
                "tail_ids": rec.memory.tail_ids,
                "scored": [_scored_dict(s) for s in rec.scored],
                "positions": [[fid, pos] for fid, pos in zip(mem_ids, positions)],
                "chunk_positions": list(positions[len(mem_ids) :]),
                "attended_frames": rec.cost.attended_frames,
                "key_tokens": rec.cost.key_tokens,
                "score_ops": rec.cost.score_ops,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "config": resolved_config_dict(settings),
        "steps": steps,
        "metrics": run_summary(trace, settings["metrics"]["clip_frames"]),
        "frame_features": trace.frame_features,
    }


# orjson writes repr's shortest digits but spells some floats otherwise
# ("1e16", "1e-7", "0.00001" for "1e+16", "1e-07", "1e-05"), each time with an
# exponent or a "0.0000"; the literal is found by bytes.find, about twice as
# fast as a regex, which tries a match at every "0"
_EXPONENT = re.compile(rb"e[-\d]")
_NUMBER = re.compile(rb"-?[\d.]+(?:e-?\d+)?")
# a list entry's text longer than this is read back in runs of whole items,
# each this long or up to one item longer, so that no more is held parsed
_BLOCK = 1 << 16
# the start of an item of a top-level entry's list, indented by 4 spaces after
# the previous item's ","; a deeper line is indented by more
_ITEM = re.compile(rb",\n    (?! )")


def _items_read_back(out: bytes, start: int, stop: int, items: list) -> bool:
    """Whether the list ``out[start:stop]``, the value of a top-level entry,
    reads back equal to ``items``. Each run of items ends at the first item
    separator ``_BLOCK`` or more bytes past its start, never at a deeper
    line, and is parsed and compared with the same run of ``items`` before
    the next is parsed."""
    if not (out.startswith(b"[\n    ", start) and out.endswith(b"\n  ]", start, stop)):
        return False
    text = memoryview(out)
    at, end, done = start + 6, stop - 4, 0
    while at < end:
        cut = _ITEM.search(out, min(at + _BLOCK, end), end)
        run = orjson.loads(b"[%b]" % text[at : cut.start() if cut else end])
        if run != items[done : done + len(run)]:
            return False
        done += len(run)
        at = cut.end() if cut else end
    return done == len(items)


def _reads_back(out: bytes, obj) -> bool:
    """Whether orjson's indented ``out`` of ``obj`` reads back equal to it.

    A dict is read back one entry at a time: each key must be orjson's
    spelling of it, and each value, a slice of ``out``, must read back
    equal, a list longer than ``_BLOCK`` bytes one run of items at a time.
    So at most one entry, or one run, is held parsed. A value that is a
    numpy array is not parsed: orjson writes a float64 C-contiguous array
    of finite values as json writes its ``tolist()``. Any other array
    fails."""
    if not isinstance(obj, dict) or not obj:
        return bool(orjson.loads(out) == obj)
    if not (out.startswith(b"{\n  ") and out.endswith(b"\n}")):
        return False
    text = memoryview(out)
    at, last = 4, len(obj) - 1
    for n, (key, value) in enumerate(obj.items()):
        head = orjson.dumps(key) + b": "
        if not out.startswith(head, at):
            return False
        start = at + len(head)
        # the next entry's key is the next line indented by 2 spaces
        stop = len(out) - 2 if n == last else out.find(b',\n  "', start)
        if stop == -1:
            return False
        if isinstance(value, np.ndarray):
            if not (
                value.dtype == np.float64
                and value.flags.c_contiguous
                and np.isfinite(value).all()
            ):
                return False
        elif isinstance(value, list) and stop - start > _BLOCK:
            if not _items_read_back(out, start, stop, value):
                return False
        elif orjson.loads(text[start:stop]) != value:
            return False
        at = stop + 4
    return True


def _listed(value):
    """A numpy array or scalar as json writes it: its ``tolist()``."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_parts(obj) -> list:
    """The bytes of ``json.dumps(obj, indent=2)``, numpy arrays and scalars
    written as their ``tolist()``, in parts: views of one orjson call's
    output when orjson writes ``obj`` as json does, and the respelled
    floats between them.

    orjson's output is kept only if it is ASCII without DEL, which json
    escapes, and reads back equal to ``obj`` (``_reads_back``). NaN and the
    infinities (written as null), tuples, dataclasses, datetimes and plain
    Enums fail the read-back and go to json, as do the ints beyond 64 bits,
    non-str keys and float subclasses that orjson rejects, and arrays that
    are not float64, C-contiguous and finite as a dict's values, or that
    compare ambiguously elsewhere. Of the kept output, only the float
    tokens orjson spells otherwise than ``repr`` are respelled with
    ``repr``."""
    try:
        out = orjson.dumps(obj, option=orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY)
        kept = out.isascii() and b"\x7f" not in out and _reads_back(out, obj)
    # unencodable, or a slice not a value (JSONDecodeError is a ValueError),
    # or an array's ambiguous truth value
    except (TypeError, ValueError):
        kept = False
    if not kept:
        return [json.dumps(obj, indent=2, default=_listed).encode()]
    marks = [match.start() for match in _EXPONENT.finditer(out)]
    at = out.find(b"0.0000")
    while at != -1:
        marks.append(at)
        at = out.find(b"0.0000", at + 6)
    tokens = {}  # start -> stop of each token to respell
    for mark in marks:
        # a number ends its line, before a "," if one follows; the span of a
        # mark inside a string holds the string's closing quote
        start = out.rfind(b" ", 0, mark) + 1
        stop = out.find(b"\n", mark)
        if stop == -1:
            stop = len(out)
        if out.endswith(b",", 0, stop):
            stop -= 1
        if _NUMBER.fullmatch(out, start, stop):
            tokens[start] = stop
    parts, done, text = [], 0, memoryview(out)
    for start, stop in sorted(tokens.items()):
        parts += [text[done:start], repr(float(out[start:stop])).encode()]
        done = stop
    parts.append(text[done:])
    return parts


def _json_bytes(obj) -> bytes:
    """The bytes ``_json_parts`` gives, joined."""
    return b"".join(_json_parts(obj))


def _write_json(path: Path, payload: dict):
    """``payload``'s JSON bytes and a newline, written part by part."""
    with path.open("wb") as f:
        f.writelines(_json_parts(payload))
        f.write(b"\n")


def _csv_head(settings: dict, header: Sequence[str]) -> io.StringIO:
    """A CSV table's two preamble lines and its header row."""
    buf = io.StringIO()
    buf.write(f"# schema_version: {SCHEMA_VERSION}\n")
    buf.write(f"# config: {json.dumps(resolved_config_dict(settings))}\n")
    csv.writer(buf).writerow(header)
    return buf


def _write_table(path: Path, fmt: str, settings: dict, header: list[str], rows: list[tuple]):
    """A table of ``rows``, tuples in ``header`` order, as CSV or JSON."""
    if fmt == "json":
        _write_json(
            path,
            {
                "schema_version": SCHEMA_VERSION,
                "config": resolved_config_dict(settings),
                "rows": list(map(dict, map(zip, itertools.repeat(header), rows))),
            },
        )
        return
    buf = _csv_head(settings, header)
    csv.writer(buf).writerows(rows)
    path.write_text(buf.getvalue())


def _int_csv_body(columns: list[np.ndarray]) -> bytes:
    """The rows ``zip(*columns)`` of non-negative ints in the bytes csv.writer
    writes: an int needs no quoting and is written as ``str(n)``, and every row
    ends in ``\\r\\n``.

    A column is int64, or an object array of Python ints such as score ops
    beyond int64, and is narrowed to int32 where its largest value has at
    most 9 digits. All rows are laid out column-major in one uint8 table of
    ASCII: one contiguous row per decimal place of each column, as many as
    its largest value has digits, then one row of ``,`` and two of the line
    end. The places are taken from the units up, each by one division by the
    scalar 10, which numpy divides by much faster than by an array of powers,
    and the top place needs no modulo. A leading zero is NUL, and
    ``bytes.translate`` drops every NUL of the row-major bytes."""
    rows = len(columns[0])
    if rows == 0:
        return b""
    if any(col.min() < 0 for col in columns):
        raise ContractViolationError("a CSV cell written as digits is negative")
    widths = [len(str(col.max())) for col in columns]
    table = np.empty((sum(widths) + len(widths) + 1, rows), np.uint8)
    at = 0
    for col, width in zip(columns, widths):
        place = col.astype(np.int32) if width <= 9 else col
        for k in range(width - 1, -1, -1):  # from the units up
            row = table[at + k]
            higher = place // 10 if k else 0  # the top place is below 10
            np.subtract(place, higher * 10, out=row, casting="unsafe")
            row += ord("0")
            if k < width - 1:  # a leading zero, never the units
                row[place == 0] = 0
            place = higher
        at += width
        table[at] = ord(",")
        at += 1
    table[-2:] = np.frombuffer(b"\r\n", np.uint8)[:, None]  # over the last ","
    return table.T.tobytes().translate(None, b"\0")


def _write_int_csv(
    path: Path, settings: dict, header: Sequence[str], columns: list[np.ndarray]
):
    """A CSV table whose cells are all non-negative ints, given as columns."""
    path.write_bytes(_csv_head(settings, header).getvalue().encode() + _int_csv_body(columns))


def _out_dir(raw: str) -> Path:
    """The --out directory, checked before any run but not made: an existing
    part of its path that is not a directory, or a dangling link, would fail
    mkdir after the run."""
    out = Path(raw)
    for part in (out, *out.parents):
        # a dangling link does not exist, but mkdir cannot pass through it
        if (part.exists() or part.is_symlink()) and not part.is_dir():
            raise ConfigError(f"--out {raw}: {part} is not a directory")
    return out


def _save(out: Path, name: str, write, *args, **kwargs):
    """``write(out / name, *args, **kwargs)``, making ``out`` if it is missing;
    an OSError is reported with the path."""
    path = out / name
    try:
        out.mkdir(parents=True, exist_ok=True)
        write(path, *args, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _dict_rows(rows: list[dict]) -> tuple[list[str], list[tuple]]:
    """Header and value tuples of dict rows that share their keys."""
    header = list(rows[0])
    return header, list(map(operator.itemgetter(*header), rows))


# ---------------------------------------------------------------------------
# subcommands


def cmd_rollout(args) -> int:
    settings = load_settings(args.config, args.set, args.seed)
    cfg = build_config(settings)
    out = _out_dir(args.out)
    # the trace is freed once its report is built, before the report is written
    _save(out, "rollout.json", _write_json, trace_report(run_rollout(cfg), settings))
    return 0


def _parse_grid(items: list[str]) -> dict[tuple[str, str], list]:
    grid: dict[tuple[str, str], list] = {}
    for item in items:
        section, key, raw = _assignment(item, "--grid expects section.key=v1,v2,...")
        if (section, key) in grid:
            raise ConfigError(f"grid key {section}.{key} given more than once")
        grid[(section, key)] = [_parse_value(section, key, v) for v in raw.split(",")]
    return grid


def cmd_sweep(args) -> int:
    settings = load_settings(args.config, args.set, args.seed)
    grid = _parse_grid(args.grid)
    if not grid:
        raise ConfigError("sweep requires at least one --grid key")
    keys = sorted(grid)
    points = [_point(settings, dict(zip(keys, combo)))
              for combo in itertools.product(*(grid[k] for k in keys))]
    configs = list(map(build_config, points))  # every point checked before a run
    out = _out_dir(args.out)

    rows = []
    for point, cfg in zip(points, configs):
        row = {f"{sec}.{key}": _plain(point[sec][key]) for sec, key in keys}
        row["policy"] = point["memory"]["policy"].value
        try:
            trace = run_rollout(cfg)
        except RelaxKVError as exc:  # a failed point is a row, not the sweep's end
            rows.append({**row, **dict.fromkeys(SWEEP_METRICS, ""), "error": str(exc)})
            continue
        summary = run_summary(trace, point["metrics"]["clip_frames"])
        rows.append({**row, **{m: summary[m] for m in SWEEP_METRICS}, "error": ""})
    _save(
        out, f"sweep.{args.format}", _write_table, args.format, settings,
        *_dict_rows(rows),
    )
    return 0


PROFILE_HEADER = (
    "step", "generated_before", "n_sink", "n_history", "n_tail",
    "attended_frames", "key_tokens", "score_ops",
)


def profile_columns(cfg: RolloutConfig) -> list[np.ndarray]:
    """Structural memory sizes and cost of every step, no generation: one
    column per ``PROFILE_HEADER`` name, computed for all steps at once from the
    memory plan's columns. The costs are int64, or object arrays of Python
    ints where score ops would pass int64 (see ``step_costs``)."""
    U = cfg.memory.chunk_size
    plan = memory_plan(cfg.memory, np.arange(0, cfg.total_frames, U))
    sizes = plan.sizes()
    costs = step_costs(sum(sizes) + U, U, cfg.model.frame_tokens, cfg.model)
    return [np.arange(len(plan.generated)), plan.generated, *sizes, *costs]


def profile_rows(cfg: RolloutConfig) -> tuple[list[str], list[tuple]]:
    """The profile table: its header and one tuple of ints per step."""
    columns = profile_columns(cfg)
    return list(PROFILE_HEADER), list(zip(*(col.tolist() for col in columns)))


def cmd_profile(args) -> int:
    settings = load_settings(args.config, args.set, args.seed)
    cfg = build_config(settings)
    out = _out_dir(args.out)
    if args.format == "json":
        _save(out, "profile.json", _write_table, "json", settings, *profile_rows(cfg))
    else:
        _save(
            out, "profile.csv", _write_int_csv, settings, PROFILE_HEADER, profile_columns(cfg)
        )
    return 0


def cmd_compare(args) -> int:
    settings = load_settings(args.config, args.set, args.seed)
    policies = []
    for chunk in args.policies:
        policies.extend(p for p in chunk.split(",") if p)
    if len(policies) < 2:
        raise ConfigError("compare needs at least 2 policies")
    if settings["rollout"]["total_frames"] < 2 * settings["metrics"]["clip_frames"]:
        raise ConfigError(
            "compare needs enough frames for at least 2 clips; "
            "increase rollout.total_frames or reduce metrics.clip_frames"
        )

    configs = []  # every policy parsed and built before the first rollout
    for name in policies:
        policy = _parse_value("memory", "policy", name)
        configs.append(build_config(_point(settings, {("memory", "policy"): policy})))
    out = _out_dir(args.out)

    per_policy = []
    for name, cfg in zip(policies, configs):
        summary = run_summary(run_rollout(cfg), settings["metrics"]["clip_frames"])
        per_policy.append({"policy": name, **{m: summary[m] for m in COMPARE_METRICS}})
    balances = balance(
        [row["drift"] for row in per_policy],
        [row["repetition"] for row in per_policy],
    )
    for row, b in zip(per_policy, balances):
        row["balance"] = b
    _save(
        out, f"compare.{args.format}", _write_table, args.format, settings,
        *_dict_rows(per_policy),
    )
    return 0


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="INI config file", default=None)
    p.add_argument(
        "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="run seed")


def _add_table(p: argparse.ArgumentParser):
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.
    It names the subcommand; ``main`` looks up its ``cmd_*`` function at call
    time, so a function replaced on this module after the first build runs."""
    parser = argparse.ArgumentParser(
        prog="relaxkv",
        description="Structured KV-memory rollout simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rollout", help="run one rollout and write a trace report")
    _add_common(p)

    p = sub.add_parser("sweep", help="run a config grid and write a table")
    _add_table(p)
    p.add_argument(
        "--grid", action="append", default=[], metavar="SECTION.KEY=V1,V2,...",
        help="grid axis (repeatable)",
    )

    p = sub.add_parser("profile", help="cost accounting only, no generation")
    _add_table(p)

    p = sub.add_parser("compare", help="run several policies on identical seeds")
    _add_table(p)
    p.add_argument(
        "--policies", action="append", default=[], metavar="P1,P2,...",
        help="policies to compare (repeatable or comma separated)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RelaxKVError as exc:
        print(f"runtime contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
