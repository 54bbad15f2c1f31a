import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relaxkv import (
    Frame,
    MemoryConfig,
    ScoredCandidate,
    partition,
    restrict_candidates,
    sample_pool,
    select_history,
    select_memory,
)
from relaxkv.errors import CacheMissError, DegeneratePrototypeError
from relaxkv.memory import _normalize, mean_keys, region_bounds
from relaxkv.rollout import structured_step_memory

from conftest import make_frame, random_unit
from oracles import (
    EmptyGroupError,
    _pooled_keys,
    frame_prototype,
    group_prototype,
    score_candidate,
)

DEFAULTS = MemoryConfig()


class TestPartition:
    def test_steady_state(self):
        p = partition(10, DEFAULTS)
        assert list(p.sink_ids) == [0, 1]
        assert list(p.candidate_ids) == list(range(2, 9))
        assert list(p.tail_ids) == [9]

    def test_warmup_tail_takes_latest(self):
        p = partition(2, DEFAULTS)
        assert list(p.sink_ids) == [0]
        assert list(p.candidate_ids) == []
        assert list(p.tail_ids) == [1]

    def test_empty(self):
        p = partition(0, DEFAULTS)
        assert list(p.sink_ids) == list(p.candidate_ids) == list(p.tail_ids) == []

    @given(
        i=st.integers(0, 200),
        n_sink=st.integers(0, 5),
        n_history=st.integers(0, 3),
        n_tail=st.integers(0, 5),
    )
    def test_totality(self, i, n_sink, n_history, n_tail):
        cfg = MemoryConfig(
            n_sink=n_sink, n_history=n_history, n_tail=n_tail,
            pool_size=max(4, n_history),
        )
        p = partition(i, cfg)
        combined = [*p.sink_ids, *p.candidate_ids, *p.tail_ids]
        assert combined == list(range(i))
        assert len(set(combined)) == len(combined)


class TestRestrictCandidates:
    def test_odd_size(self):
        p = partition(10, DEFAULTS)
        assert list(restrict_candidates(p)) == [6, 7, 8]

    def test_even_size(self):
        cfg = MemoryConfig()
        p = partition(7, cfg)
        assert list(p.candidate_ids) == [2, 3, 4, 5]
        assert list(restrict_candidates(p)) == [4, 5]

    def test_empty(self):
        assert list(restrict_candidates(partition(0, DEFAULTS))) == []

    def test_singleton_excluded(self):
        # one candidate sits at idx 0 which is below half of size 1
        p = partition(4, DEFAULTS)
        assert list(p.candidate_ids) == [2]
        assert list(restrict_candidates(p)) == []


def list_regions(i, cfg):
    """The list-built partition, restriction and fixed-position history the
    range regions replaced, kept as their oracle."""
    n_tail = min(i, cfg.n_tail)
    n_sink = min(i - n_tail, cfg.n_sink)
    sink = list(range(n_sink))
    cand = list(range(n_sink, i - n_tail))
    tail = list(range(i - n_tail, i))
    n = len(cand)
    restricted = [h for idx, h in enumerate(cand) if 2 * idx >= n]
    fixed = []
    if cand:
        pos = min(cfg.fixed_history_position, len(cand) - 1)
        fixed = cand[pos : pos + cfg.n_history]
    return sink, cand, tail, restricted, fixed


class TestRangeRegions:
    @given(
        i=st.integers(0, 5000),
        n_sink=st.integers(0, 8),
        n_history=st.integers(0, 4),
        n_tail=st.integers(0, 8),
        position=st.integers(0, 12) | st.integers(0, 6000),
    )
    def test_ranges_equal_list_oracle(self, i, n_sink, n_history, n_tail, position):
        cfg = MemoryConfig(
            n_sink=n_sink, n_history=n_history, n_tail=n_tail,
            pool_size=max(4, n_history), fixed_history_position=position,
        )
        p = partition(i, cfg)
        regions = (p.sink_ids, p.candidate_ids, p.tail_ids, restrict_candidates(p))
        assert all(type(r) is range for r in regions)
        sink, cand, tail, restricted, fixed = list_regions(i, cfg)
        assert [list(r) for r in regions] == [sink, cand, tail, restricted]
        # the memory plan's fixed-position history, one step of it
        history = structured_step_memory(cfg, i)[0].history_ids
        assert type(history) is list
        assert history == fixed


class TestSamplePool:
    def test_clamp(self):
        assert sample_pool([4, 5, 6], 4) == [4, 5, 6]

    def test_even_spacing_includes_endpoints(self):
        ids = list(range(10, 18))
        assert sample_pool(ids, 4) == [10, 12, 14, 17]

    def test_identity_at_exact_size(self):
        assert sample_pool([1, 2, 3, 4], 4) == [1, 2, 3, 4]

    def test_single_slot_takes_most_recent(self):
        assert sample_pool([5, 6, 7], 1) == [7]


class TestPrototypes:
    def test_frame_mean_normalized(self):
        f = make_frame(0, [[3.0, 4.0], [3.0, 4.0]])
        np.testing.assert_allclose(frame_prototype(f), [0.6, 0.8])

    def test_single_key_identity(self):
        f = make_frame(0, [[0.0, 1.0]])
        np.testing.assert_allclose(frame_prototype(f), [0.0, 1.0])

    def test_zero_mean_raises(self):
        f = make_frame(0, [[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegeneratePrototypeError):
            frame_prototype(f)

    def test_group_singleton_matches_frame(self):
        f = make_frame(0, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(group_prototype([f]), frame_prototype(f))

    def test_group_identical_keys(self):
        k = [[2.0, 0.0]]
        g = group_prototype([make_frame(0, k), make_frame(1, k)])
        np.testing.assert_allclose(g, [1.0, 0.0])

    def test_empty_group_raises(self):
        with pytest.raises(EmptyGroupError):
            group_prototype([])

    def test_scale_invariance(self, rng):
        f = make_frame(0, rng.normal(size=(5, 8)))
        scaled = make_frame(0, f.keys[0] * 37.5)
        np.testing.assert_allclose(frame_prototype(f), frame_prototype(scaled))

    def test_scoring_layer_selects_one_layer(self, rng):
        keys = rng.normal(size=(3, 4, 6))
        f = make_frame(0, keys[0])
        f = f.__class__(id=0, keys=keys, values=np.zeros_like(keys))
        expected = keys[1].mean(axis=0)
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(frame_prototype(f, scoring_layer=1), expected)


class TestScoreCandidate:
    def test_aligned_with_sink(self):
        s = score_candidate(6, np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                            np.array([0.0, 1.0]), 2.0)
        assert (s.stability, s.redundancy, s.relaxation) == (1.0, 0.0, 1.0)

    def test_pure_redundancy(self):
        s = score_candidate(6, np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                            np.array([0.0, 1.0]), 2.0)
        assert (s.stability, s.redundancy, s.relaxation) == (0.0, 1.0, -2.0)

    def test_arithmetic(self):
        s = score_candidate(6, np.array([0.6, 0.8]), np.array([1.0, 0.0]),
                            np.array([0.0, 1.0]), 2.0)
        assert s.relaxation == pytest.approx(-1.0, abs=1e-12)

    def test_missing_groups_contribute_zero(self):
        s = score_candidate(6, np.array([0.6, 0.8]), None, None, 2.0)
        assert (s.stability, s.redundancy, s.relaxation) == (0.0, 0.0, 0.0)

    def test_identity_and_bounds(self, rng):
        for _ in range(200):
            h, s_, t = (random_unit(rng, 6) for _ in range(3))
            lam = float(rng.choice([0.0, 0.5, 2.0, 5.0]))
            sc = score_candidate(0, h, s_, t, lam)
            assert abs(sc.relaxation - (sc.stability - lam * sc.redundancy)) <= 1e-9
            assert abs(sc.stability) <= 1 + 1e-6
            assert abs(sc.redundancy) <= 1 + 1e-6


def scan_topk_oracle(scored, k):
    """Independent oracle: repeatedly scan for the max score, breaking ties
    toward the larger frame id."""
    remaining = list(scored)
    picked = []
    for _ in range(min(k, len(remaining))):
        best = remaining[0]
        for s in remaining[1:]:
            if s.relaxation > best.relaxation or (
                s.relaxation == best.relaxation and s.frame_id > best.frame_id
            ):
                best = s
        picked.append(best.frame_id)
        remaining.remove(best)
    return sorted(picked)


class TestSelectHistory:
    def test_max(self):
        scored = [
            ScoredCandidate(6, 0, 0, 0.2),
            ScoredCandidate(7, 0, 0, -0.5),
            ScoredCandidate(8, 0, 0, 0.7),
        ]
        assert select_history(scored, 1) == [8]

    def test_tie_break_recent(self):
        scored = [ScoredCandidate(6, 0, 0, 0.5), ScoredCandidate(7, 0, 0, 0.5)]
        assert select_history(scored, 1) == [7]

    def test_matches_scan_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 13))
            scores = rng.choice([-0.5, -0.1, 0.0, 0.1, 0.3, 0.5], size=n)
            scored = [
                ScoredCandidate(fid, 0, 0, float(r)) for fid, r in enumerate(scores)
            ]
            k = int(rng.integers(0, n + 2))
            assert select_history(scored, k) == scan_topk_oracle(scored, k)

    def test_lambda_zero_is_stability_ordering(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 10))
            scored = []
            for fid in range(n):
                h, s_, t = (random_unit(rng, 5) for _ in range(3))
                scored.append(score_candidate(fid, h, s_, t, 0.0))
            by_stability = sorted(
                scored, key=lambda s: (s.stability, s.frame_id), reverse=True
            )
            k = int(rng.integers(1, n + 1))
            assert select_history(scored, k) == sorted(
                s.frame_id for s in by_stability[:k]
            )


def mean_rows(frames):
    """The rollout's mean-key array for ``frames``: row f is frame f's pooled
    keys averaged."""
    means = np.zeros((max(frames) + 1, next(iter(frames.values())).keys.shape[-1]))
    for fid, f in frames.items():
        means[fid] = _pooled_keys(f, None).mean(axis=0)
    return means


def select(frames, means, generated_count, cfg, pool):
    """select_memory for the step after ``generated_count`` frames that
    attends the sink and tail its pool is scored against, as a relaxed step
    does: the partition's bounds, as the memory plan's columns hold them."""
    sink_stop, tail_start = (int(b) for b in region_bounds(generated_count, cfg))
    scoring = (sink_stop, tail_start, generated_count)
    return select_memory(frames, means, scoring, cfg, pool, {}, (sink_stop, tail_start))


class TestSelectMemoryAssembly:
    def test_assembly(self):
        # at i=10 the defaults score the pool 6, 7, 8; only 7 leans to the sink
        to_sink, to_tail = np.eye(4)[:2]
        frames = {
            fid: make_frame(fid, [to_sink if fid in (0, 1, 7) else to_tail])
            for fid in range(10)
        }
        mem, scored = select(frames, mean_rows(frames), 10, DEFAULTS, [6, 7, 8])
        assert mem.sink_ids == [0, 1]
        assert mem.history_ids == [7]
        assert mem.tail_ids == [9]
        assert mem.all_ids == [0, 1, 7, 9]
        assert [s.frame_id for s in scored] == [6, 7, 8]

    def test_history_free(self):
        mem, scored = select({}, np.empty((0, 4)), 10, DEFAULTS, [])
        assert mem.all_ids == [0, 1, 9]
        assert scored == []


def test_pool_clamp_selects_whole_pool(rng):
    # pool_size == n_history: scores cannot change the outcome
    cfg = MemoryConfig(n_history=2, pool_size=2)
    p = partition(20, cfg)
    pool = sample_pool(restrict_candidates(p), cfg.pool_size)
    scored = [
        ScoredCandidate(fid, 0, 0, float(rng.normal())) for fid in pool
    ]
    assert select_history(scored, cfg.n_history) == sorted(pool)


def test_select_memory_names_a_scored_frame_missing_from_cache(rng):
    # at i=30 the defaults score the pool 16, 20, 24, 28; frame 20 is evicted
    # but its row of the mean-key array still holds a value
    frames = {fid: make_frame(fid, [random_unit(rng, 4)]) for fid in range(30)}
    means = mean_rows(frames)
    del frames[20]
    with pytest.raises(CacheMissError, match="frame 20 missing from cache"):
        select(frames, means, 30, DEFAULTS, [16, 20, 24, 28])


@pytest.mark.parametrize(
    "cfg",
    [DEFAULTS, MemoryConfig(n_sink=3, n_tail=3, n_history=2, pool_size=5)],
    ids=["one-frame-tail", "sink3-tail3"],
)
def test_select_memory_scores_without_the_sink_and_tail_cached(rng, cfg):
    """Selection reads the sink's and tail's prototypes from the mean-key
    array: with their frames evicted it scores exactly as with them cached,
    and as group_prototype recomputes from the frames."""
    frames = {fid: make_frame(fid, rng.normal(size=(3, 4))) for fid in range(30)}
    means = mean_rows(frames)
    p = partition(30, cfg)
    pool = sample_pool(restrict_candidates(p), cfg.pool_size)
    proto_sink, proto_tail = (
        group_prototype([frames[f] for f in ids]) for ids in (p.sink_ids, p.tail_ids)
    )
    expected = [
        score_candidate(fid, frame_prototype(frames[fid]), proto_sink, proto_tail, cfg.lam)
        for fid in pool
    ]
    evicted = {fid: f for fid, f in frames.items() if fid not in [*p.sink_ids, *p.tail_ids]}
    for cached in (frames, evicted):
        mem, scored = select(cached, means, 30, cfg, pool)
        assert scored == expected
        assert (mem.sink_ids, mem.tail_ids) == (list(p.sink_ids), list(p.tail_ids))


@pytest.mark.parametrize("zero, raises", [(4, False), (7, True)])
def test_zero_mean_frame_raises_only_in_the_pool(rng, zero, raises):
    # at i=10 the defaults score the pool 6, 7, 8; frame 4 is a candidate
    # outside it
    frames = {
        fid: make_frame(fid, [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]] if fid == zero
                        else [random_unit(rng, 3)])
        for fid in range(10)
    }
    if raises:
        with pytest.raises(DegeneratePrototypeError):
            select(frames, mean_rows(frames), 10, DEFAULTS, [6, 7, 8])
    else:
        _, scored = select(frames, mean_rows(frames), 10, DEFAULTS, [6, 7, 8])
        assert [s.frame_id for s in scored] == [6, 7, 8]


def reference_normalize(v):
    """The one-vector normalization the row-wise one replaced."""
    return v / float(np.linalg.norm(v))


scales = st.floats(1e-150, 1e150) | st.integers(-150, 150).map(lambda e: 10.0**e)


class TestMeanKeyRows:
    @settings(max_examples=300, deadline=None)
    @given(
        layers=st.integers(1, 4),
        U=st.integers(1, 5),
        F=st.integers(1, 8),
        d=st.integers(2, 64),
        layer=st.none() | st.integers(0, 3),
        scale=scales,
        zero_row=st.none() | st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(layers=2, U=3, F=4, d=8, layer=None, scale=1e-13, zero_row=None, seed=0)
    @example(layers=1, U=2, F=1, d=2, layer=0, scale=1e150, zero_row=1, seed=0)
    def test_rows_equal_per_frame_means_and_normalize_per_row(
        self, layers, U, F, d, layer, scale, zero_row, seed
    ):
        """mean_keys row j is frame j's pooled keys averaged, and the row-wise
        _normalize is the one-vector reference on every row, bit for bit; a
        row below the norm bound raises."""
        if layer is not None:
            layer %= layers
        keys = np.random.default_rng(seed).normal(size=(layers, U, F, d)) * scale
        if zero_row is not None:  # a frame whose keys cancel: zero mean
            keys[:, zero_row % U] = 0.0
        rows = mean_keys(keys, layer)
        assert rows.shape == (U, d)
        for j in range(U):
            frame = Frame(id=j, keys=keys[:, j], values=keys[:, j])
            assert rows[j].tobytes() == _pooled_keys(frame, layer).mean(axis=0).tobytes()

        norms = [float(np.linalg.norm(row)) for row in rows]
        if min(norms) < 1e-12:
            with pytest.raises(DegeneratePrototypeError):
                _normalize(rows)
            return
        expected = np.array([reference_normalize(row) for row in rows])
        assert _normalize(rows).tobytes() == expected.tobytes()
        assert _normalize(rows[0]).tobytes() == expected[0].tobytes()
