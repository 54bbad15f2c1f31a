"""Batch front-end: rollout / sweep / profile / compare subcommands.

Config files are INI-style with one section per module; every key can be
overridden on the command line with --set section.key=value. Reports embed
the fully resolved config and a schema version, and are byte-identical for
identical (config, seed).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import itertools
import json
import sys
from pathlib import Path

from .attention import count_step_cost
from .config import MemoryConfig, ModelParams, Policy, RolloutConfig
from .errors import ConfigError, RelaxKVError
from .memory import (
    StructuredMemory,
    fixed_history,
    partition,
    restrict_candidates,
    sample_pool,
)
from .metrics import (
    DEFAULT_CLIP_FRAMES,
    balance,
    cost_ratio,
    steady_cost,
    trace_metrics,
)
from .rollout import RolloutTrace, run_rollout, run_sweep

SCHEMA_VERSION = 1

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# key -> parser; None-able ints accept the empty string or "none"
_SCHEMA = {
    "memory": {
        "policy": lambda v: Policy(v),
        "n_sink": int,
        "n_history": int,
        "n_tail": int,
        "pool_size": int,
        "lambda": float,
        "chunk_size": int,
        "window_size": int,
        "fixed_history_position": lambda v: None if v.lower() in ("", "none") else int(v),
        "bounded_cache": lambda v: _BOOL[v.lower()],
        "scoring_layer": lambda v: None if v.lower() in ("", "none") else int(v),
    },
    "model": {
        "layers": int,
        "heads": int,
        "head_dim": int,
        "frame_tokens": int,
        "rotary_base": float,
    },
    "rollout": {
        "total_frames": int,
        "seed": int,
    },
    "metrics": {
        "clip_frames": int,
    },
}

_DEFAULTS = {
    "memory": {
        "policy": Policy.RELAXED,
        "n_sink": 2,
        "n_history": 1,
        "n_tail": 1,
        "pool_size": 4,
        "lambda": 2.0,
        "chunk_size": 3,
        "window_size": 21,
        "fixed_history_position": None,
        "bounded_cache": False,
        "scoring_layer": None,
    },
    "model": {
        "layers": 2,
        "heads": 4,
        "head_dim": 16,
        "frame_tokens": 16,
        "rotary_base": 10000.0,
    },
    "rollout": {
        "total_frames": 60,
        "seed": None,
    },
    "metrics": {
        "clip_frames": DEFAULT_CLIP_FRAMES,
    },
}


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
        parser = configparser.ConfigParser()
        read = parser.read(config_path)
        if not read:
            raise ConfigError(f"cannot read config file {config_path}")
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                settings[section][key] = _parse_value(section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        settings[section][key] = _parse_value(section, key, raw)
    if seed is not None:
        settings["rollout"]["seed"] = seed
    if settings["rollout"]["seed"] is None:
        raise ConfigError("a seed is required (--seed or rollout.seed)")
    return settings


def build_config(settings: dict) -> RolloutConfig:
    mem = dict(settings["memory"])
    mem["lam"] = mem.pop("lambda")
    return RolloutConfig(
        memory=MemoryConfig(**mem),
        model=ModelParams(**settings["model"]),
        total_frames=settings["rollout"]["total_frames"],
        seed=settings["rollout"]["seed"],
    )


def resolved_config_dict(settings: dict) -> dict:
    out = {}
    for section in sorted(settings):
        out[section] = {
            k: (v.value if isinstance(v, Policy) else v)
            for k, v in sorted(settings[section].items())
        }
    return out


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


def trace_report(trace: RolloutTrace, settings: dict) -> dict:
    steps = []
    for rec in trace.records:
        steps.append(
            {
                "step": rec.step,
                "generated_before": rec.generated_before,
                "sink_ids": rec.memory.sink_ids,
                "history_ids": rec.memory.history_ids,
                "tail_ids": rec.memory.tail_ids,
                "scored": [_scored_dict(s) for s in rec.scored],
                "positions": [[fid, pos] for fid, pos in rec.plan.assignments],
                "chunk_positions": rec.plan.current_chunk_positions,
                "attended_frames": rec.cost.attended_frames,
                "key_tokens": rec.cost.key_tokens,
                "score_ops": rec.cost.score_ops,
            }
        )
    metrics = trace_metrics(trace, settings["metrics"]["clip_frames"])
    steady = steady_cost(trace)
    baseline = canonical_baseline_cost(trace.config)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": resolved_config_dict(settings),
        "steps": steps,
        "metrics": {
            "drift": metrics["drift"],
            "repetition": metrics["repetition"],
            "cost_ratio": cost_ratio(baseline, steady),
            "steady_attended_frames": steady.attended_frames,
            "total_score_ops": sum(r.cost.score_ops for r in trace.records),
        },
        "frame_features": [list(map(float, row)) for row in trace.frame_features],
    }


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_table(path: Path, fmt: str, settings: dict, rows: list[dict]):
    if fmt == "json":
        _write_json(
            path,
            {
                "schema_version": SCHEMA_VERSION,
                "config": resolved_config_dict(settings),
                "rows": rows,
            },
        )
        return
    buf = io.StringIO()
    buf.write(f"# schema_version: {SCHEMA_VERSION}\n")
    buf.write(f"# config: {json.dumps(resolved_config_dict(settings))}\n")
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    path.write_text(buf.getvalue())


# ---------------------------------------------------------------------------
# subcommands


def cmd_rollout(args) -> int:
    settings = load_settings(args.config, args.set, args.seed)
    cfg = build_config(settings)
    trace = run_rollout(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "rollout.json", trace_report(trace, settings))
    return 0


def _parse_grid(items: list[str]) -> dict[tuple[str, str], list]:
    grid: dict[tuple[str, str], list] = {}
    for item in items:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--grid expects section.key=v1,v2,..., got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if (section, key) in grid:
            raise ConfigError(f"grid key {dotted} given more than once")
        values = [_parse_value(section, key, v) for v in raw.split(",")]
        if not values:
            raise ConfigError(f"grid key {dotted} has no values")
        grid[(section, key)] = values
    return grid


def cmd_sweep(args) -> int:
    settings = load_settings(args.config, args.set, args.seed)
    grid = _parse_grid(args.grid)
    if not grid:
        raise ConfigError("sweep requires at least one --grid key")
    keys = sorted(grid)
    configs = []
    points = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        point = {sec: dict(vals) for sec, vals in settings.items()}
        for (section, key), value in zip(keys, combo):
            point[section][key] = value
        points.append(point)
        configs.append(build_config(point))
    results = run_sweep(configs)

    rows = []
    for point, res in zip(points, results):
        row = {f"{sec}.{key}": _fmt_cell(point[sec][key]) for sec, key in keys}
        row["policy"] = point["memory"]["policy"].value
        if res.trace is None:
            row.update(
                drift="", repetition="", steady_attended_frames="",
                total_score_ops="", cost_ratio="", error=res.error,
            )
        else:
            m = trace_metrics(res.trace, point["metrics"]["clip_frames"])
            steady = steady_cost(res.trace)
            row.update(
                drift=m["drift"],
                repetition=m["repetition"],
                steady_attended_frames=steady.attended_frames,
                total_score_ops=sum(r.cost.score_ops for r in res.trace.records),
                cost_ratio=cost_ratio(canonical_baseline_cost(res.config), steady),
                error="",
            )
        rows.append(row)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / f"sweep.{args.format}", args.format, settings, rows)
    return 0


def _fmt_cell(value):
    if isinstance(value, Policy):
        return value.value
    return value


def _profile_sizes(i: int, mcfg: MemoryConfig, window_len: int) -> tuple[int, int, int]:
    """Structural (sink, history, tail) sizes for one step, no generation."""
    budget = mcfg.memory_budget
    policy = mcfg.policy
    if policy is Policy.NONE:
        return 0, 0, 0
    if policy is Policy.FULL:
        return 0, 0, i
    if policy is Policy.DENSE_WINDOW:
        return 0, 0, window_len
    if policy is Policy.SINK_ONLY:
        return min(i, budget), 0, 0
    if policy is Policy.TAIL_ONLY:
        return 0, 0, min(i, budget)
    if policy is Policy.ATTENTION_SINK:
        sink = min(i, mcfg.n_sink)
        return sink, 0, min(i - sink, mcfg.n_tail + mcfg.n_history)
    p = partition(i, mcfg)
    if policy is Policy.HISTORY_ONLY:
        pool = sample_pool(restrict_candidates(p), max(mcfg.pool_size, budget))
        if not pool:
            return len(p.sink_ids), 0, len(p.tail_ids)
        return 0, min(budget, len(pool)), 0
    # relaxed
    if mcfg.fixed_history_position is not None:
        return len(p.sink_ids), len(fixed_history(p, mcfg)), len(p.tail_ids)
    pool = sample_pool(restrict_candidates(p), mcfg.pool_size)
    return len(p.sink_ids), min(mcfg.n_history, len(pool)), len(p.tail_ids)


def cmd_profile(args) -> int:
    settings = load_settings(args.config, args.set, args.seed)
    cfg = build_config(settings)
    mcfg = cfg.memory
    U = mcfg.chunk_size
    rows = []
    window = 0
    for step, i in enumerate(range(0, cfg.total_frames, U)):
        if mcfg.policy is Policy.DENSE_WINDOW and window + U > mcfg.window_size:
            window = U
        n_s, n_h, n_t = _profile_sizes(i, mcfg, window)
        mem = StructuredMemory(
            sink_ids=list(range(n_s)),
            history_ids=list(range(n_s, n_s + n_h)),
            tail_ids=list(range(n_s + n_h, n_s + n_h + n_t)),
        )
        cost = count_step_cost(mem, U, cfg.model.frame_tokens, cfg.model)
        rows.append(
            {
                "step": step,
                "generated_before": i,
                "n_sink": n_s,
                "n_history": n_h,
                "n_tail": n_t,
                "attended_frames": cost.attended_frames,
                "key_tokens": cost.key_tokens,
                "score_ops": cost.score_ops,
            }
        )
        if mcfg.policy is Policy.DENSE_WINDOW:
            window += U
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / f"profile.{args.format}", args.format, settings, rows)
    return 0


def cmd_compare(args) -> int:
    settings = load_settings(args.config, args.set, args.seed)
    policies = []
    for chunk in args.policies:
        policies.extend(p for p in chunk.split(",") if p)
    if len(policies) < 2:
        raise ConfigError("compare needs at least 2 policies")

    per_policy = []
    for name in policies:
        point = {sec: dict(vals) for sec, vals in settings.items()}
        point["memory"]["policy"] = _parse_value("memory", "policy", name)
        cfg = build_config(point)
        trace = run_rollout(cfg)
        m = trace_metrics(trace, point["metrics"]["clip_frames"])
        if m["drift"] is None:
            raise ConfigError(
                "compare needs enough frames for at least 2 clips; "
                "increase rollout.total_frames or reduce metrics.clip_frames"
            )
        steady = steady_cost(trace)
        per_policy.append(
            {
                "policy": name,
                "drift": m["drift"],
                "repetition": m["repetition"],
                "steady_attended_frames": steady.attended_frames,
                "cost_ratio": cost_ratio(canonical_baseline_cost(cfg), steady),
            }
        )
    balances = balance(
        [row["drift"] for row in per_policy],
        [row["repetition"] for row in per_policy],
    )
    for row, b in zip(per_policy, balances):
        row["balance"] = b
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / f"compare.{args.format}", args.format, settings, per_policy)
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
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxkv",
        description="Structured KV-memory rollout simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rollout", help="run one rollout and write a trace report")
    _add_common(p)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("sweep", help="run a config grid and write a table")
    _add_common(p)
    p.add_argument(
        "--grid", action="append", default=[], metavar="SECTION.KEY=V1,V2,...",
        help="grid axis (repeatable)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("profile", help="cost accounting only, no generation")
    _add_common(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("compare", help="run several policies on identical seeds")
    _add_common(p)
    p.add_argument(
        "--policies", action="append", default=[], metavar="P1,P2,...",
        help="policies to compare (repeatable or comma separated)",
    )
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RelaxKVError as exc:
        print(f"runtime contract violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
