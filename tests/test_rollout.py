from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from relaxkv import (
    MemoryConfig,
    ModelParams,
    Policy,
    RolloutConfig,
    audit_history_compliance,
    partition,
    run_rollout,
)
import relaxkv.rollout as rollout_module
from relaxkv.attention import attend_chunk
from relaxkv.errors import ConfigError, ContractViolationError


def cfg_for(policy=Policy.RELAXED, total_frames=60, seed=7, **mem_kwargs):
    return RolloutConfig(
        memory=MemoryConfig(policy=policy, **mem_kwargs),
        total_frames=total_frames,
        seed=seed,
    )


class TestRunRollout:
    def test_cold_start_single_chunk(self):
        for policy in Policy:
            trace = run_rollout(cfg_for(policy=policy, total_frames=3))
            assert len(trace.records) == 1
            assert len(trace.records[0].memory) == 0

    def test_defaults_steady_state(self):
        trace = run_rollout(cfg_for())
        for rec in trace.records[2:]:
            assert len(rec.memory.sink_ids) == 2
            assert len(rec.memory.history_ids) == 1
            assert len(rec.memory.tail_ids) == 1
            assert rec.cost.attended_frames == 7

    def test_policy_none_has_empty_memory(self):
        trace = run_rollout(cfg_for(policy=Policy.NONE))
        assert all(len(rec.memory) == 0 for rec in trace.records)

    def test_full_policy_attends_everything(self):
        trace = run_rollout(cfg_for(policy=Policy.FULL))
        for rec in trace.records:
            assert rec.memory.all_ids == list(range(rec.generated_before))
            assert rec.cost.attended_frames == rec.generated_before + 3

    def test_trailing_partial_chunk_rejected(self):
        with pytest.raises(ConfigError):
            cfg_for(total_frames=50)

    def test_trace_determinism(self):
        a = run_rollout(cfg_for(seed=99))
        b = run_rollout(cfg_for(seed=99))
        assert (a.frame_features == b.frame_features).all()
        for ra, rb in zip(a.records, b.records):
            assert ra.memory == rb.memory
            assert ra.first_position == rb.first_position
            assert ra.scored == rb.scored

    def test_causality_prefix_invariance(self):
        short = run_rollout(cfg_for(total_frames=30, seed=5))
        long = run_rollout(cfg_for(total_frames=60, seed=5))
        np.testing.assert_array_equal(
            short.frame_features, long.frame_features[:30]
        )

    def test_features_finite(self):
        for policy in Policy:
            trace = run_rollout(cfg_for(policy=policy, total_frames=30))
            assert np.isfinite(trace.frame_features).all()

    @pytest.mark.parametrize("part, value", [(1, np.nan), (2, np.inf)], ids=["keys", "values"])
    def test_non_finite_chunk_is_a_contract_violation(self, part, value):
        """The chunk's keys and values are checked once per chunk, before
        they are cached; the error names the step."""
        calls = []

        def corrupting(*args):
            result = attend_chunk(*args)
            calls.append(args)
            if len(calls) == 2:
                result[part][-1, -1, 0, 0] = value
            return result

        with mock.patch.object(rollout_module, "attend_chunk", corrupting), \
                pytest.raises(ContractViolationError, match="step 1 .*non-finite"):
            run_rollout(cfg_for(total_frames=30))

    def test_score_identity_in_traces(self):
        trace = run_rollout(cfg_for())
        lam = trace.config.memory.lam
        seen = 0
        for rec in trace.records:
            for s in rec.scored:
                seen += 1
                assert abs(s.relaxation - (s.stability - lam * s.redundancy)) <= 1e-9
                assert abs(s.stability) <= 1 + 1e-6
                assert abs(s.redundancy) <= 1 + 1e-6
        assert seen > 0

    def test_eq2_compliance_audit(self):
        for seed in range(5):
            trace = run_rollout(cfg_for(seed=seed))
            assert audit_history_compliance(trace) == []

    def test_history_only_compliance_audit(self):
        trace = run_rollout(cfg_for(policy=Policy.HISTORY_ONLY, seed=2))
        assert audit_history_compliance(trace) == []
        # move one step's history into the first half of its candidate region
        k, rec = next((k, r) for k, r in enumerate(trace.records) if r.memory.history_ids)
        oldest = partition(rec.generated_before, trace.config.memory).candidate_ids[0]
        moved = replace(rec.memory, history_ids=[oldest, *rec.memory.history_ids[1:]])
        records = [*trace.records[:k], replace(rec, memory=moved), *trace.records[k + 1 :]]
        assert audit_history_compliance(replace(trace, records=records)) == [
            (rec.step, oldest)
        ]

    def test_relaxed_without_history_matches_attention_sink(self):
        relaxed = run_rollout(cfg_for(seed=3, n_history=0, pool_size=4))
        sink = run_rollout(
            cfg_for(policy=Policy.ATTENTION_SINK, seed=3, n_history=0, pool_size=4)
        )
        for ra, rb in zip(relaxed.records, sink.records):
            assert ra.memory == rb.memory
        np.testing.assert_array_equal(relaxed.frame_features, sink.frame_features)

    def test_memory_budget_steady_state(self):
        trace = run_rollout(cfg_for(n_sink=3, n_history=2, n_tail=2, pool_size=4))
        warm = trace.config.memory.n_sink + trace.config.memory.n_tail + 1
        for rec in trace.records:
            if rec.generated_before >= warm + 3:  # candidate region non-trivial
                assert len(rec.memory) <= 7
        assert len(trace.records[-1].memory) == 7

    def test_fixed_history_position(self):
        trace = run_rollout(cfg_for(seed=4, fixed_history_position=0))
        for rec in trace.records[2:]:
            # position 0: always the oldest candidate
            assert rec.memory.history_ids == [rec.memory.sink_ids[-1] + 1]
            assert rec.scored == []


class TestDenseWindowBaseline:
    def test_reanchors_on_final_chunk(self):
        cfg = cfg_for(policy=Policy.DENSE_WINDOW, window_size=9, total_frames=30)
        trace = run_rollout(cfg)
        mems = [rec.memory.tail_ids for rec in trace.records]
        assert mems[0] == []
        assert mems[1] == [0, 1, 2]
        assert mems[2] == [0, 1, 2, 3, 4, 5]
        # window saturated: re-anchor on the final chunk of the previous window
        assert mems[3] == [6, 7, 8]
        assert mems[4] == [6, 7, 8, 9, 10, 11]

    def test_positions_reset_per_window(self):
        cfg = cfg_for(policy=Policy.DENSE_WINDOW, window_size=9, total_frames=30)
        trace = run_rollout(cfg)
        rec = trace.records[3]
        # frames 6, 7, 8 at 0, 1, 2 and the chunk at 3, 4, 5
        assert rec.memory.all_ids == [6, 7, 8]
        assert rec.first_position == 0

    def test_default_window_peaks_at_21_frames(self):
        trace = run_rollout(cfg_for(policy=Policy.DENSE_WINDOW))
        peak = max(rec.cost.attended_frames for rec in trace.records)
        assert peak == 21
