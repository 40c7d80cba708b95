import gc
import json
import warnings

import numpy as np
import pytest

from carrierstream import (
    CapacityError,
    ConfigError,
    DegenerateInputError,
    EvictionReplay,
    FrameTokens,
    ModelConfig,
    OracleError,
    OrderingError,
    SelectionError,
    ShapeError,
    StateError,
    StreamSession,
    derive_replay,
    init_model,
    make_random_frames,
    oracle_full_forward,
)
from carrierstream import engine
from carrierstream.engine import SEGMENT_PLANS_KEPT, segment_plan
from carrierstream.masking import CACHEABLE_TAGS, build_streaming_mask
from carrierstream.model import _row_plan
from conftest import copy_frames

SYSTEM = [1, 2, 3, 4]


def stream_all(config, weights, frames, **kwargs):
    session = StreamSession(config, weights, system_tokens=SYSTEM, **kwargs)
    for f in frames:
        session.ingest_frame(f)
    return session


def test_streaming_matches_full_oracle(tiny_config, tiny_weights, tiny_frames):
    session = stream_all(tiny_config, tiny_weights, tiny_frames)
    out = session.ask([5, 6], max_new=1, keep_logits=True)
    oracle = oracle_full_forward(tiny_weights, SYSTEM, tiny_frames, [5, 6])
    assert np.abs(oracle.logits[-1] - out.first_logits).max() <= 1e-4


# (carrier_kv_mode, memory_enabled): every variant the dense oracle covers
VARIANTS = pytest.mark.parametrize(
    "kv_mode,memory",
    [("inherited", True), ("inherited", False), ("embedding_only", True), ("embedding_only", False)],
    ids=["inherited-memory", "inherited-no_memory", "embedding_only-memory", "embedding_only-no_memory"],
)


def variant(config, kv_mode, memory, **overrides):
    return ModelConfig(
        **{**config.to_dict(), "carrier_kv_mode": kv_mode, "memory_enabled": memory, **overrides}
    )


@VARIANTS
def test_streaming_matches_oracle_across_seeds(tiny_config, kv_mode, memory):
    config = variant(tiny_config, kv_mode, memory)
    for seed in range(3):
        w = init_model(config, seed=seed)
        frames = make_random_frames(4, config.tokens_per_frame, config.d_model, seed=seed + 10)
        session = stream_all(config, w, frames)
        out = session.ask([7], max_new=1, keep_logits=True)
        oracle = oracle_full_forward(w, SYSTEM, frames, [7])
        assert np.abs(oracle.logits[-1] - out.first_logits).max() <= 1e-4, seed


def test_kv_footprint_worked_example(tiny_weights):
    # 2 layers, d=32, 4 system tokens, 10 frames with one carrier each:
    # 14 entries/layer; bytes = 2 * 14 * 2 * 32 * 4 = 7168
    config = tiny_weights.config
    frames = make_random_frames(10, config.tokens_per_frame, config.d_model, seed=0)
    session = stream_all(config, tiny_weights, frames)
    fp = session.kv_footprint()
    assert fp["entries_per_layer"] == 14
    assert fp["bytes"] == 7168


def test_kv_footprint_excludes_text_on_request(tiny_config, tiny_weights, tiny_frames):
    session = stream_all(tiny_config, tiny_weights, tiny_frames)
    before = session.kv_footprint()
    session.ask([5, 6], max_new=2)
    with_text = session.kv_footprint(include_text=True)
    without = session.kv_footprint(include_text=False)
    assert without == before
    assert with_text["entries_per_layer"] > without["entries_per_layer"]


def test_memory_stays_bounded_under_eviction(tiny_weights):
    config = ModelConfig(**{**tiny_weights.config.to_dict(), "memory_capacity": 4})
    frames = make_random_frames(12, config.tokens_per_frame, config.d_model, seed=3)
    session = stream_all(config, tiny_weights, frames)
    assert len(session.bank) == 4
    # cache holds system + exactly the surviving carriers
    assert session.kv_footprint()["entries_per_layer"] == len(SYSTEM) + 4
    surviving = set(session.bank.frame_indices())
    cached_frames = {int(o) for o in session.cache.origins if o >= 0}
    assert cached_frames == surviving
    assert "frame" not in session.cache.tags


def test_eviction_leaves_position_gaps(tiny_weights):
    config = ModelConfig(**{**tiny_weights.config.to_dict(), "memory_capacity": 2})
    frames = make_random_frames(5, config.tokens_per_frame, config.d_model, seed=3)
    session = stream_all(config, tiny_weights, frames)
    carrier_positions = sorted(
        int(p) for p, o in zip(session.cache.positions, session.cache.origins) if o >= 0
    )
    diffs = np.diff(carrier_positions)
    assert len(carrier_positions) == 2
    assert (diffs > 1).any()  # gaps are kept, never re-packed


def test_replay_reproduces_recorded_run_bitwise(tiny_weights):
    config = ModelConfig(**{**tiny_weights.config.to_dict(), "memory_capacity": 3})
    frames = make_random_frames(8, config.tokens_per_frame, config.d_model, seed=5)
    first = stream_all(config, tiny_weights, frames)
    out_a = first.ask([9, 10], max_new=3, keep_logits=True)

    replay = derive_replay(first)
    assert set(replay.before_frame) or replay.before_ask
    second = stream_all(config, tiny_weights, copy_frames(frames), replay=replay)
    out_b = second.ask([9, 10], max_new=3, keep_logits=True)
    assert out_a.tokens == out_b.tokens
    for a, b in zip(out_a.step_logits, out_b.step_logits):
        np.testing.assert_array_equal(a, b)
    assert second.bank.frame_indices() == first.bank.frame_indices()


def test_evicted_frame_cannot_influence_later_logits(tiny_weights):
    config = ModelConfig(**{**tiny_weights.config.to_dict(), "memory_capacity": 4})
    frames = make_random_frames(6, config.tokens_per_frame, config.d_model, seed=6)
    replay = EvictionReplay(before_frame={3: (2,)})

    def run(delta):
        fr = copy_frames(frames)
        fr[2].embeddings += delta
        session = stream_all(config, tiny_weights, fr, replay=replay)
        return session.ask([9], max_new=3, keep_logits=True)

    base = run(0.0)
    for delta in (+1.0, -1.0):
        other = run(delta)
        for a, b in zip(base.step_logits, other.step_logits):
            np.testing.assert_array_equal(a, b)
        assert base.tokens == other.tokens


@VARIANTS
def test_oracle_honors_replay(tiny_config, tiny_weights, kv_mode, memory):
    # with memory disabled the first ask prefills frames 0, 2, 3 and 5 of 6,
    # and a replay may evict only before the ask
    config = variant(tiny_config, kv_mode, memory, memory_capacity=4)
    frames = make_random_frames(6, config.tokens_per_frame, config.d_model, seed=7)
    if memory:
        replay = EvictionReplay(before_frame={3: (1,)}, before_ask=(4,))
    else:
        replay = EvictionReplay(before_ask=(2,))
    # default-config weights: the session's copy carries the variant it streamed
    session = stream_all(config, tiny_weights, frames, replay=replay)
    out = session.ask([8], max_new=1, keep_logits=True)
    oracle = oracle_full_forward(session.weights, SYSTEM, frames, [8], replay=replay)
    assert np.abs(oracle.logits[-1] - out.first_logits).max() <= 1e-4


def test_memory_disabled_replay_before_a_frame_is_rejected(tiny_config):
    # a memory-disabled session has no bank until its first question, so a
    # before_frame entry could never be honoured
    config = variant(tiny_config, "inherited", False, memory_capacity=4)
    weights = init_model(config, seed=0)
    frames = make_random_frames(6, config.tokens_per_frame, config.d_model, seed=7)
    replay = EvictionReplay(before_frame={3: (1,)})
    with pytest.raises(ConfigError, match="before_frame"):
        StreamSession(config, weights, system_tokens=SYSTEM, replay=replay)
    with pytest.raises(ConfigError, match="before_frame"):
        oracle_full_forward(weights, SYSTEM, frames, [8], replay=replay)


def test_oracle_rejects_unsupported_modes(tiny_config, tiny_weights, tiny_frames):
    small = ModelConfig(**{**tiny_config.to_dict(), "memory_capacity": 2})
    w3 = init_model(small, seed=0)
    with pytest.raises(OracleError):
        oracle_full_forward(w3, SYSTEM, tiny_frames, [5])
    for bad in ([-1], [tiny_config.vocab_size], [999], [1.5]):
        with pytest.raises(ConfigError):
            oracle_full_forward(tiny_weights, SYSTEM, tiny_frames, bad)
        with pytest.raises(ConfigError):
            oracle_full_forward(tiny_weights, bad, tiny_frames, [5])


def test_no_memory_buffers_then_samples(tiny_weights):
    config = ModelConfig(
        **{**tiny_weights.config.to_dict(), "memory_capacity": 3, "memory_enabled": False}
    )
    frames = make_random_frames(9, config.tokens_per_frame, config.d_model, seed=8)
    session = stream_all(config, tiny_weights, frames)
    assert len(session.bank) == 0  # nothing ingested yet
    assert session.kv_footprint()["entries_per_layer"] == len(SYSTEM)
    out = session.ask([5], max_new=1)
    assert len(out.tokens) == 1
    assert len(session.bank) == 3  # sampled uniformly across the buffer
    sampled = session.bank.frame_indices()
    assert sampled[0] == 0 and sampled[-1] == 8
    events = [e["event"] for e in session.trace]
    assert "materialize" in events


def test_multi_turn_dialogue_and_reset(tiny_config, tiny_weights, tiny_frames):
    session = stream_all(tiny_config, tiny_weights, tiny_frames)
    base_entries = session.kv_footprint()["entries_per_layer"]
    out1 = session.ask([5, 6], max_new=2)
    entries_after_1 = session.kv_footprint()["entries_per_layer"]
    assert entries_after_1 == base_entries + 2 + len(out1.tokens)
    session.ask([7], max_new=1)
    assert session.kv_footprint()["entries_per_layer"] > entries_after_1
    removed = session.reset_dialogue()
    assert removed > 0
    assert session.kv_footprint()["entries_per_layer"] == base_entries

    # a fresh ask after reset matches a never-asked session
    fresh = stream_all(tiny_config, tiny_weights, copy_frames(tiny_frames))
    a = session.ask([5, 6], max_new=1, keep_logits=True)
    b = fresh.ask([5, 6], max_new=1, keep_logits=True)
    np.testing.assert_array_equal(a.first_logits, b.first_logits)


def test_eos_stops_generation(tiny_config, tiny_weights, tiny_frames):
    session = stream_all(tiny_config, tiny_weights, tiny_frames)
    free = session.ask([5], max_new=4)
    assert len(free.tokens) == 4
    eos = free.tokens[1]
    config = ModelConfig(**{**tiny_config.to_dict(), "eos_token_id": int(eos)})
    session2 = stream_all(config, tiny_weights, copy_frames(tiny_frames))
    stopped = session2.ask([5], max_new=4)
    assert stopped.tokens == free.tokens[:2]


def test_trace_jsonl_written(tmp_path, tiny_weights):
    config = ModelConfig(**{**tiny_weights.config.to_dict(), "memory_capacity": 3})
    frames = make_random_frames(8, config.tokens_per_frame, config.d_model, seed=5)
    path = str(tmp_path / "trace.jsonl")
    # numpy-integer indices (as from an index array) are stored as plain ints
    frames = [FrameTokens(np.int64(f.frame_index), f.embeddings) for f in frames]
    for bad in (True, 1.0, "1"):
        with pytest.raises(ConfigError):
            FrameTokens(bad, frames[0].embeddings)
    session = stream_all(config, tiny_weights, frames, trace_path=path)
    session.ask([5], max_new=1)
    session.close()
    events = [json.loads(line) for line in open(path)]
    assert events == session.trace
    kinds = [e["event"] for e in events]
    assert kinds[0] == "open"
    assert kinds[-1] == "ask"
    ingest = [e for e in events if e["event"] == "ingest"]
    assert [e["frame"] for e in ingest] == [f.frame_index for f in frames]
    assert all(e["kv_bytes"] > 0 and e["latency_us"] >= 0 for e in ingest)
    evicted = [e["evicted"] for e in ingest if e["evicted"] is not None]
    assert len(evicted) == len(frames) - config.memory_capacity
    assert sorted(evicted + session.bank.frame_indices()) == [f.frame_index for f in frames]
    replay = derive_replay(session)
    scheduled = [j for js in replay.before_frame.values() for j in js] + list(replay.before_ask)
    assert sorted(scheduled) == sorted(evicted)


def test_failed_system_prefill_leaves_no_trace_file(tmp_path, tiny_config):
    config = ModelConfig(**{**tiny_config.to_dict(), "max_positions": 16})
    weights = init_model(config, seed=0)
    path = tmp_path / "trace.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CapacityError):
            StreamSession(config, weights, system_tokens=[1] * 20, trace_path=str(path))
        gc.collect()
    assert not path.exists()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_session_rejects_bad_input(tiny_config, tiny_weights, tiny_frames):
    other = ModelConfig(**{**tiny_config.to_dict(), "d_model": 64, "ff_dim": 128})
    with pytest.raises(ConfigError):
        StreamSession(other, tiny_weights)

    session = stream_all(tiny_config, tiny_weights, tiny_frames[:2])
    with pytest.raises(OrderingError):
        session.ingest_frame(tiny_frames[0])  # frame index goes backwards
    with pytest.raises(ShapeError):
        session.ingest_frame(FrameTokens(10, np.zeros((3, 16), np.float32)))

    vocab = tiny_config.vocab_size
    for bad in ([-1], [vocab], [999], [5, -5], [1.5]):
        with pytest.raises(ConfigError):
            StreamSession(tiny_config, tiny_weights, system_tokens=bad)
        entries, position = len(session.cache), session._next_position
        with pytest.raises(ConfigError):
            session.ask(bad, max_new=1)
        assert len(session.cache) == entries
        assert session._next_position == position
    session.ask([0, vocab - 1], max_new=1)


@pytest.mark.parametrize("carrier_mode", ["mean", "last_token"])
def test_zero_norm_carrier_is_rejected_before_any_state_changes(tiny_weights, carrier_mode):
    config = ModelConfig(
        **{**tiny_weights.config.to_dict(), "memory_capacity": 3, "carrier_mode": carrier_mode}
    )
    n, d = config.tokens_per_frame, config.d_model
    frames = make_random_frames(6, n, d, seed=9)
    zero = np.ones((n, d), np.float32) if carrier_mode == "last_token" else np.zeros((n, d), np.float32)
    zero[-1] = 0.0  # the carrier is the last row or the mean: zero either way

    def state(session):
        return (session.bank.frame_indices(), len(session.cache), session._next_position,
                len(session.trace))

    # a bank with room, a full bank, and a replay with a forced eviction due at the frame
    for filled, replay in ((1, None), (3, None), (3, EvictionReplay(before_frame={10: (0,)}))):
        session = StreamSession(config, tiny_weights, system_tokens=SYSTEM, replay=replay)
        for f in frames[:filled]:
            session.ingest_frame(f)
        before = state(session)
        with pytest.raises(DegenerateInputError, match="frame 10"):
            session.ingest_frame(FrameTokens(10, zero))
        assert state(session) == before
        for i, f in enumerate(frames[filled:], start=11):  # the bank is not poisoned
            session.ingest_frame(FrameTokens(i, f.embeddings))
        assert len(session.cache) == len(SYSTEM) + len(session.bank)


def _budget_session(tiny_weights, frames=3, **overrides):
    # 2 system tokens + 3 frames of N+1 = 5 positions: with memory enabled
    # the next position is 17 of 24
    replay = overrides.pop("replay", None)
    config = ModelConfig(
        **{**tiny_weights.config.to_dict(), "max_positions": 24, "tokens_per_frame": 4,
           "memory_capacity": 2, **overrides}
    )
    weights = init_model(config, seed=0)
    session = StreamSession(config, weights, system_tokens=[1, 2], replay=replay)
    for f in make_random_frames(frames, 4, config.d_model, seed=5):
        session.ingest_frame(f)
    return session


def _session_state(session):
    return (len(session.cache), session._next_position, session.bank.frame_indices(),
            len(session.trace), len(session._pending_frames))


def test_ask_past_the_position_budget_changes_nothing(tiny_weights):
    # worst case 2 + 10 positions at position 17; with memory disabled the
    # frames are only buffered (position 2), and the first ask also
    # prefills 2 of the 3 of them, 5 positions each
    cases = ((True, 10, 5, "ask needs 12 positions, 7 of 24 left"),
             (False, 11, 10, "ask needs 23 positions, 22 of 24 left"))
    for memory, max_new, fits, message in cases:
        session = _budget_session(tiny_weights, memory_enabled=memory)
        before = _session_state(session)
        with pytest.raises(CapacityError) as err:
            session.ask([5, 6], max_new=max_new)
        assert _session_state(session) == before
        assert message in str(err.value)
        session.ask([5, 6], max_new=fits)  # exactly the positions left


def test_ingest_past_the_position_budget_changes_nothing(tiny_weights):
    # frames 0-3 fill positions 2-21; frame 4 needs 5 more with only 2 left,
    # and its forced eviction of frame 0 is due first
    session = _budget_session(tiny_weights, frames=4, replay=EvictionReplay(before_frame={4: (0,)}))
    before = _session_state(session)
    frame = make_random_frames(5, 4, session.config.d_model, seed=6)[-1]
    with pytest.raises(CapacityError) as err:
        session.ingest_frame(frame)
    assert _session_state(session) == before
    assert "frame 4 needs 5 positions, 2 of 24 left" in str(err.value)


def test_bad_replay_entry_changes_nothing(tiny_weights):
    # frame 0 is in the bank but 99 never was, and a victim listed twice is
    # as bad: the whole entry is rejected before any victim is removed
    config = ModelConfig(**{**tiny_weights.config.to_dict(), "memory_capacity": 4})
    frames = make_random_frames(4, config.tokens_per_frame, config.d_model, seed=3)
    for replay, act in (
        (EvictionReplay(before_ask=(0, 99)), lambda s: s.ask([5])),
        (EvictionReplay(before_ask=(0, 0)), lambda s: s.ask([5])),
        (EvictionReplay(before_frame={3: (0, 99)}), lambda s: s.ingest_frame(frames[3])),
        (EvictionReplay(before_frame={3: (1, 1)}), lambda s: s.ingest_frame(frames[3])),
    ):
        session = stream_all(config, tiny_weights, frames[:3], replay=replay)
        before = _session_state(session)
        with pytest.raises(SelectionError):
            act(session)
        assert _session_state(session) == before


def test_bad_ask_replay_on_a_memory_disabled_session_changes_nothing(tiny_weights):
    # the first ask prefills the sampled buffered frames; an entry naming a
    # frame outside that sample is rejected before any of them is prefilled
    config = ModelConfig(
        **{**tiny_weights.config.to_dict(), "memory_capacity": 4, "memory_enabled": False}
    )
    frames = make_random_frames(3, config.tokens_per_frame, config.d_model, seed=3)
    session = stream_all(config, tiny_weights, frames, replay=EvictionReplay(before_ask=(0, 99)))
    before = _session_state(session)
    with pytest.raises(SelectionError):
        session.ask([5])
    assert _session_state(session) == before

    good = stream_all(config, tiny_weights, copy_frames(frames), replay=EvictionReplay(before_ask=(0,)))
    good.ask([5])
    assert good.bank.frame_indices() == [1, 2]


def test_carrier_and_kv_mode_ablations_differ(tiny_config, tiny_weights, tiny_frames):
    def logits_for(**overrides):
        config = ModelConfig(**{**tiny_config.to_dict(), **overrides})
        session = stream_all(config, tiny_weights, copy_frames(tiny_frames))
        return session.ask([5], max_new=1, keep_logits=True).first_logits

    full = logits_for()
    last = logits_for(carrier_mode="last_token")
    emb = logits_for(carrier_kv_mode="embedding_only")
    assert np.abs(full - last).max() > 1e-6
    assert np.abs(full - emb).max() > 1e-6


def test_first_logits_requires_keep(tiny_config, tiny_weights, tiny_frames):
    session = stream_all(tiny_config, tiny_weights, tiny_frames)
    out = session.ask([5], max_new=1)
    with pytest.raises(StateError):
        _ = out.first_logits


def test_memoized_segment_plans_equal_fresh_row_plans(tiny_config, tiny_weights, tiny_frames, monkeypatch):
    issued = set()

    def record(*key):
        issued.add(key)
        return segment_plan(*key)

    monkeypatch.setattr(engine, "segment_plan", record)
    for overrides in ({}, {"carrier_kv_mode": "embedding_only"}, {"memory_enabled": False}):
        config = ModelConfig(**{**tiny_config.to_dict(), "memory_capacity": 3, **overrides})
        session = stream_all(config, tiny_weights, copy_frames(tiny_frames))
        for question, max_new in (([5, 6], 3), ([7], 0), ([1, 2, 3], 1)):
            session.ask(question, max_new=max_new)
    assert {kind for kind, *_ in issued} == {"system", "frame", "carrier", "text"}
    assert {rows for *_, rows, _ in issued} == {(), (0,), (1,), (2,)}

    for kind, count, rows, layers in issued:
        plan, spec = segment_plan(kind, count, rows, layers), build_streaming_mask(kind, count)
        read = np.isin(np.arange(len(spec.tags)), rows)
        cacheable = np.isin(spec.tags, CACHEABLE_TAGS)
        assert np.array_equal(plan.mask, spec.allow) and plan.tags == spec.tags
        assert plan.kept_tags == tuple(np.array(spec.tags)[cacheable])
        for got, fresh in zip(plan.layers, _row_plan(spec.allow, cacheable, read, layers), strict=True):
            for a, b in zip(got, fresh, strict=True):
                assert a is b is None or np.array_equal(a, b)


def test_segment_plan_memo_stays_at_its_bound(tiny_config, tiny_weights):
    session = StreamSession(tiny_config, tiny_weights, system_tokens=SYSTEM)
    segment_plan.cache_clear()
    for length in range(1, SEGMENT_PLANS_KEPT + 6):  # one text plan per question length
        session.ask(list(range(1, length + 1)), max_new=0)
        session.reset_dialogue()
    assert segment_plan.cache_info().currsize == SEGMENT_PLANS_KEPT


def test_memoized_plans_are_read_only(tiny_config):
    plan = segment_plan("frame", tiny_config.tokens_per_frame, (), tiny_config.layers)
    with pytest.raises(ValueError, match="read-only"):
        plan.mask[0, 1] = True
    arrays = [a for rows in plan.layers for a in rows if a is not None]
    assert arrays and not any(a.flags.writeable for a in arrays)
