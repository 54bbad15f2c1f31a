"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import contextlib
import time

import numpy as np
import pytest

from relaxkv import (
    Frame,
    KVCache,
    MemoryConfig,
    ModelParams,
    Policy,
    RolloutConfig,
    ScoredCandidate,
    StructuredMemory,
    ToyAttentionStack,
    attend_chunk,
    audit_history_compliance,
    balance,
    cost_ratio,
    count_step_cost,
    relaxed_positions,
    restrict_candidates,
    run_rollout,
    sample_pool,
    select_history,
)
from relaxkv.cli import main
from relaxkv.memory import partition

from conftest import random_unit
from oracles import score_candidate
from test_attention import naive_reference, phases_from, random_frame
from test_memory import scan_topk_oracle
from test_metrics import (
    PUBLISHED_BALANCES,
    STRATEGY_DRIFTS,
    STRATEGY_REPETITIONS,
)
from test_rope import rotate


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def suite_traces():
    """The traces every audit-style criterion scans."""
    traces = []
    for seed in range(5):
        traces.append(run_rollout(RolloutConfig(seed=seed)))
    traces.append(
        run_rollout(
            RolloutConfig(
                memory=MemoryConfig(n_sink=3, n_history=2, n_tail=2, pool_size=6),
                seed=11,
            )
        )
    )
    traces.append(
        run_rollout(RolloutConfig(memory=MemoryConfig(lam=0.0), seed=12))
    )
    return traces


TRACES = suite_traces()


def test_attention_length_accounting():
    with criterion("attention-length accounting"):
        start = time.perf_counter()
        trace = run_rollout(RolloutConfig(seed=0))
        for rec in trace.records[2:]:
            assert rec.cost.attended_frames == 7
        baseline = count_step_cost(
            StructuredMemory(tail_ids=list(range(18))), 3, 16, ModelParams()
        )
        assert baseline.attended_frames == 21
        relaxed = trace.records[-1].cost
        assert cost_ratio(baseline, relaxed) == 3.0
        assert cost_ratio(baseline, relaxed) >= 2.6
        assert time.perf_counter() - start < 1.0


def test_selection_oracle():
    with criterion("selection oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            n = int(rng.integers(1, 13))
            lam = float(rng.choice([0.0, 0.5, 2.0, 5.0]))
            sink = random_unit(rng, 8)
            tail = random_unit(rng, 8)
            scored = [
                score_candidate(fid, random_unit(rng, 8), sink, tail, lam)
                for fid in range(n)
            ]
            k = int(rng.integers(0, n + 1))
            assert select_history(scored, k) == scan_topk_oracle(scored, k)
        assert time.perf_counter() - start < 5.0


def test_score_identities():
    with criterion("score identities"):
        checked = 0
        for trace in TRACES:
            lam = trace.config.memory.lam
            for rec in trace.records:
                for s in rec.scored:
                    assert abs(s.relaxation - (s.stability - lam * s.redundancy)) <= 1e-9
                    assert abs(s.stability) <= 1 + 1e-6
                    assert abs(s.redundancy) <= 1 + 1e-6
                    checked += 1
        assert checked > 0


def test_second_half_compliance_audit():
    with criterion("second-half candidate compliance"):
        for trace in TRACES:
            assert audit_history_compliance(trace) == []


def test_positional_contract():
    with criterion("positional contract"):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            ns, nh, nt = (int(rng.integers(0, 6)) for _ in range(3))
            total = ns + nh + nt
            i = int(rng.integers(total, total + 500))
            ids = iter(range(i))
            mem = StructuredMemory(
                sink_ids=[next(ids) for _ in range(ns)],
                history_ids=[next(ids) for _ in range(nh)],
                tail_ids=list(range(i - nt, i)),
            )
            plan = relaxed_positions(mem, i, 3)
            pos = plan.as_dict()
            tail_pos = [pos[f] for f in mem.tail_ids]
            sh_pos = [pos[f] for f in mem.sink_ids + mem.history_ids]
            # tail absoluteness
            assert all(pos[f] == f for f in mem.tail_ids)
            # sink/history contiguity ending at the tail start minus one
            assert sh_pos == list(range(i - nt - ns - nh, i - nt))
            # strict role ordering
            if sh_pos and tail_pos:
                assert max(sh_pos) < min(tail_pos)
            if tail_pos:
                assert max(tail_pos) < min(plan.current_chunk_positions)


def test_attention_oracle():
    with criterion("attention oracle"):
        params = ModelParams(layers=2, heads=2, head_dim=4, frame_tokens=3)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            stack = ToyAttentionStack(params, seed=seed)
            n_mem = int(rng.integers(0, 7))
            U = 2
            mem_frames = [random_frame(rng, fid, params) for fid in range(n_mem)]
            cache = KVCache(frames={f.id: f for f in mem_frames})
            mem = StructuredMemory(tail_ids=list(range(n_mem)))
            plan = relaxed_positions(mem, n_mem, U)
            h = rng.normal(size=(U, params.frame_tokens, params.d))
            phases = phases_from(n_mem - len(mem), len(mem) + U, params)
            out, _, _, _, _ = attend_chunk(h, mem, phases, cache, stack)
            ref = naive_reference(
                h, mem_frames, list(range(n_mem)),
                plan.current_chunk_positions, stack,
            )
            assert np.max(np.abs(out - ref)) < 1e-5


def test_rotary_properties():
    with criterion("rotary properties"):
        params = ModelParams(head_dim=16, rotary_base=10000.0)
        rng = np.random.default_rng(99)
        for _ in range(1000):
            v = rng.normal(size=16)
            pos = int(rng.integers(0, 100_001))
            delta = int(rng.integers(0, 1000))
            rotated = rotate(v, pos, params)
            assert abs(np.linalg.norm(rotated) - np.linalg.norm(v)) < 1e-6
            q = rng.normal(size=16)
            lhs = rotate(q, pos, params) @ rotate(v, pos + delta, params)
            rhs = rotate(q, 0, params) @ rotate(v, delta, params)
            assert abs(lhs - rhs) < 1e-6


def test_metric_math_oracle():
    with criterion("metric math oracle"):
        got = balance(STRATEGY_DRIFTS, STRATEGY_REPETITIONS)
        assert min(got) == got[5]
        assert abs(got[5] - 0.745) <= 0.005
        assert (
            np.argsort(got, kind="stable").tolist()
            == np.argsort(PUBLISHED_BALANCES, kind="stable").tolist()
        )


def test_report_determinism(tmp_path):
    with criterion("report determinism"):
        args = ["compare", "--seed", "21",
                "--policies", "dense_window,attention_sink,relaxed"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        assert (
            (out_a / "compare.csv").read_bytes()
            == (out_b / "compare.csv").read_bytes()
        )


def test_degenerate_policy_equivalences():
    with criterion("degenerate-policy equivalences"):
        # relaxed with no history == attention-sink memory, step for step
        relaxed = run_rollout(
            RolloutConfig(memory=MemoryConfig(n_history=0), seed=6)
        )
        sink = run_rollout(
            RolloutConfig(
                memory=MemoryConfig(policy=Policy.ATTENTION_SINK, n_history=0),
                seed=6,
            )
        )
        for ra, rb in zip(relaxed.records, sink.records):
            assert ra.memory == rb.memory

        # lambda 0: ordering by relaxation equals ordering by stability
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            scored = [
                score_candidate(
                    fid, random_unit(rng, 6), random_unit(rng, 6),
                    random_unit(rng, 6), 0.0,
                )
                for fid in range(n)
            ]
            by_stability = [
                ScoredCandidate(s.frame_id, s.stability, 0.0, s.stability)
                for s in scored
            ]
            k = int(rng.integers(1, n + 1))
            assert select_history(scored, k) == select_history(by_stability, k)

        # pool_size == n_history: the whole pool is selected regardless of scores
        cfg = MemoryConfig(n_history=2, pool_size=2)
        for i in (10, 20, 40):
            pool = sample_pool(restrict_candidates(partition(i, cfg)), cfg.pool_size)
            scored = [
                ScoredCandidate(fid, 0.0, 0.0, float(rng.normal())) for fid in pool
            ]
            assert select_history(scored, cfg.n_history) == sorted(pool)


def test_sweep_harness(tmp_path):
    with criterion("sweep harness"):
        start = time.perf_counter()
        grids = [
            "memory.n_sink=0,1,2,3",
            "memory.n_history=0,1,2,3",
            "memory.n_tail=0,1,2,3",
            "memory.fixed_history_position=0,1,2,3,4,5,6,7,8",
        ]
        import csv as csv_mod

        for idx, grid in enumerate(grids):
            out = tmp_path / f"g{idx}"
            assert main(["sweep", "--seed", "5", "--out", str(out),
                         "--grid", grid]) == 0
            lines = [
                l for l in (out / "sweep.csv").read_text().splitlines()
                if not l.startswith("#")
            ]
            rows = list(csv_mod.DictReader(lines))
            assert len(rows) == len(grid.split("=")[1].split(","))
            assert all(r["error"] == "" for r in rows)
            assert all(r["drift"] != "" for r in rows)
        assert time.perf_counter() - start < 60.0
