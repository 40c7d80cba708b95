import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrierstream import carrier as carrier_module
from carrierstream.config import EVICTION_RULES
from carrierstream import (
    CapacityError,
    CarrierRecord,
    DegenerateInputError,
    FrameTokens,
    MemoryBank,
    OrderingError,
    SelectionError,
    ShapeError,
    build_carrier_embedding,
    cosine_similarity,
    oracle_select_victim,
)


def record(frame: int, emb: np.ndarray) -> CarrierRecord:
    return CarrierRecord(frame_index=frame, embedding=emb.astype(np.float32),
                         position=frame)


def test_mean_carrier_is_column_mean():
    rng = np.random.default_rng(0)
    frame = rng.standard_normal((8, 16)).astype(np.float32)
    np.testing.assert_allclose(
        build_carrier_embedding(frame, "mean"), frame.mean(axis=0), atol=1e-7
    )


def test_last_token_carrier_is_final_row_bitwise():
    rng = np.random.default_rng(1)
    frame = rng.standard_normal((5, 8)).astype(np.float32)
    np.testing.assert_array_equal(build_carrier_embedding(frame, "last_token"), frame[-1])


def test_carrier_mode_validation():
    with pytest.raises(Exception):
        build_carrier_embedding(np.ones((2, 2), np.float32), "median")


def test_frame_tokens_validation():
    with pytest.raises(ShapeError):
        FrameTokens(0, np.zeros(4, dtype=np.float32))
    bad = np.zeros((2, 4), dtype=np.float32)
    bad[0, 0] = np.nan
    with pytest.raises(DegenerateInputError):
        FrameTokens(0, bad)


def test_bank_ordering_and_capacity():
    bank = MemoryBank(capacity=2, rule="adjacent_pairs")
    rng = np.random.default_rng(0)
    bank.insert(record(0, rng.standard_normal(4)))
    with pytest.raises(OrderingError):
        bank.insert(record(0, rng.standard_normal(4)))
    bank.insert(record(3, rng.standard_normal(4)))
    assert bank.frame_indices() == [0, 3]
    with pytest.raises(CapacityError):
        bank.insert(record(4, rng.standard_normal(4)), allow_eviction=False)
    # replay runs may overflow by design; the schedule drains it later
    bank.insert(record(4, rng.standard_normal(4)), allow_eviction=False, allow_overflow=True)
    assert len(bank) == 3


def test_adjacent_pairs_hand_case():
    # bank: e0 ~ e1 strongly similar, e2 off-axis; incoming dissimilar.
    # best pair is (0, 1), so frame 0 (the older member) is evicted.
    bank = MemoryBank(capacity=3, rule="adjacent_pairs")
    bank.insert(record(0, np.array([1.0, 0.0, 0.0])))
    bank.insert(record(1, np.array([0.99, 0.1, 0.0])))
    bank.insert(record(2, np.array([0.0, 1.0, 0.0])))
    report = bank.insert(record(3, np.array([0.0, 0.0, 1.0])))
    assert report.frame_evicted == 0
    assert bank.frame_indices() == [1, 2, 3]
    assert report.rule == "adjacent_pairs"


def test_adjacent_pairs_can_reject_incoming_neighbor():
    # the best pair is (last_in_bank, incoming): the bank member goes.
    bank = MemoryBank(capacity=2, rule="adjacent_pairs")
    bank.insert(record(0, np.array([1.0, 0.0])))
    bank.insert(record(1, np.array([0.0, 1.0])))
    report = bank.insert(record(2, np.array([0.01, 1.0])))
    assert report.frame_evicted == 1
    assert bank.frame_indices() == [0, 2]


def test_vs_incoming_hand_case():
    bank = MemoryBank(capacity=3, rule="vs_incoming")
    bank.insert(record(0, np.array([0.0, 1.0, 0.0])))
    bank.insert(record(1, np.array([1.0, 0.05, 0.0])))
    bank.insert(record(2, np.array([0.0, 0.0, 1.0])))
    report = bank.insert(record(3, np.array([1.0, 0.0, 0.0])))
    assert report.frame_evicted == 1  # most similar to the incoming carrier
    assert bank.frame_indices() == [0, 2, 3]


def test_identical_embeddings_tie_evicts_oldest():
    same = np.array([1.0, 1.0, 0.0])
    for rule in ("adjacent_pairs", "vs_incoming"):
        bank = MemoryBank(capacity=3, rule=rule)
        for t in range(3):
            bank.insert(record(t, same))
        report = bank.insert(record(3, same))
        assert report.frame_evicted == 0, rule


def test_eviction_log_and_snapshot():
    bank = MemoryBank(capacity=2, rule="vs_incoming")
    rng = np.random.default_rng(2)
    reports = [bank.insert(record(t, rng.standard_normal(4))) for t in range(4)]
    assert reports[:2] == [None, None]
    for report in reports[2:]:
        assert report.rule == "vs_incoming"
        assert report.frame_evicted not in bank.frame_indices()
    assert len(bank) == 2
    snap = bank.snapshot()
    assert [s["frame_index"] for s in snap] == bank.frame_indices()
    snap[0]["embedding"][:] = 99.0  # snapshot is a copy
    assert not (bank.carriers[0].embedding == 99.0).any()


def test_remove_missing_frame():
    bank = MemoryBank(capacity=2, rule="adjacent_pairs")
    bank.insert(record(0, np.ones(3)))
    got = bank.remove(0)
    assert got.frame_index == 0 and len(bank) == 0
    with pytest.raises(SelectionError):
        bank.remove(7)


@pytest.mark.parametrize("rule", ["adjacent_pairs", "vs_incoming"])
def test_eviction_matches_exhaustive_oracle(rule):
    rng = np.random.default_rng(42)
    m, d = 8, 16
    bank = MemoryBank(capacity=m, rule=rule)
    for t in range(m):
        bank.insert(record(t, rng.standard_normal(d)))
    for t in range(m, m + 300):
        incoming = rng.standard_normal(d)
        embs = [c.embedding.copy() for c in bank.carriers]
        before = bank.frame_indices()
        expect_slot, expect_score = oracle_select_victim(embs, incoming, rule)
        report = bank.insert(record(t, incoming))
        assert report.frame_evicted == before[expect_slot]
        assert report.score == pytest.approx(expect_score, abs=1e-7)
        assert len(bank) == m


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(EVICTION_RULES),
    st.integers(1, 5),
    st.lists(
        st.tuples(st.sampled_from(["insert", "overflow", "remove"]), st.integers(0, 2**32 - 1)),
        max_size=40,
    ),
)
def test_bank_matches_oracle_under_mixed_operations(rule, capacity, ops):
    # evicting inserts, replay's overflow inserts and forced removals, with
    # repeated and nearly repeated embeddings to make exact and near ties
    d = 16
    bank = MemoryBank(capacity=capacity, rule=rule)
    seen: list[np.ndarray] = []
    for t, (op, seed) in enumerate(ops):
        rng = np.random.default_rng(seed)
        if op == "remove":
            if len(bank):
                frame = bank.frame_indices()[rng.integers(len(bank))]
                assert bank.remove(frame).frame_index == frame
            continue
        dtype = rng.choice([np.float32, np.float64])
        kind = rng.integers(3) if seen else 0
        if kind == 0:
            emb = rng.standard_normal(d).astype(dtype)
        else:
            emb = seen[rng.integers(len(seen))].astype(dtype)
        if kind == 2:  # one ulp off: exact and float64 scores can rank the two differently
            k = rng.integers(d)
            emb[k] = np.nextafter(emb[k], dtype(np.inf) if rng.integers(2) else dtype(-np.inf))
        seen.append(emb)
        before = bank.frame_indices()
        embs = [c.embedding.copy() for c in bank.carriers]
        evicting = op == "insert" and len(before) >= capacity
        report = bank.insert(
            CarrierRecord(frame_index=t, embedding=emb, position=t),
            allow_eviction=op == "insert",
            allow_overflow=op == "overflow",
        )
        if evicting:
            slot, score = oracle_select_victim(embs, emb.copy(), rule)
            assert report.frame_evicted == before[slot]
            assert report.score == score  # the same cosine_similarity call, bit for bit
            before.pop(slot)
        else:
            assert report is None
        assert bank.frame_indices() == before + [t]


@pytest.mark.parametrize("scale", [1.0, 1e-21, 1e19])
@pytest.mark.parametrize("rule", EVICTION_RULES)
def test_near_ties_match_oracle(rule, scale):
    # slots one float32 ulp apart score within rounding of each other; the
    # exact scores and a float64 pass often rank such slots differently, and
    # at the extreme scales float32 underflows or overflows
    rng = np.random.default_rng(6)
    base = (scale * rng.standard_normal(16)).astype(np.float32)
    bank = MemoryBank(capacity=8, rule=rule)
    for t in range(8 + 400):
        if rng.integers(2):
            emb = base.copy()
            k = rng.integers(16)
            emb[k] = np.nextafter(emb[k], np.float32(rng.choice([-np.inf, np.inf])))
        else:  # scores against the near-copies of `base` nearly tie, away from +-1
            emb = (scale * rng.standard_normal(16)).astype(np.float32)
        embs = [c.embedding.copy() for c in bank.carriers]
        before = bank.frame_indices()
        with np.errstate(over="ignore", invalid="ignore"):  # float32 overflows at 1e19
            report = bank.insert(record(t, emb))
            if t >= 8:
                slot, score = oracle_select_victim(embs, emb, rule)
        if t >= 8:
            assert report.frame_evicted == before[slot]
            assert np.array_equal(report.score, score, equal_nan=True)


@pytest.mark.parametrize("rule", EVICTION_RULES)
def test_failed_eviction_leaves_bank_unchanged(rule):
    rng = np.random.default_rng(4)
    bank = MemoryBank(capacity=3, rule=rule)
    for t in range(3):
        bank.insert(record(t, rng.standard_normal(8)))
    with pytest.raises(DegenerateInputError):
        bank.insert(record(3, np.zeros(8)))  # a zero-norm carrier raises when scored
    assert bank.frame_indices() == [0, 1, 2]
    incoming = rng.standard_normal(8).astype(np.float32)
    slot, score = oracle_select_victim([c.embedding.copy() for c in bank.carriers], incoming, rule)
    report = bank.insert(record(4, incoming))
    assert (report.frame_evicted, report.score) == ([0, 1, 2][slot], score)


def test_adjacent_pairs_steady_eviction_scores_at_most_two_pairs(monkeypatch):
    rng = np.random.default_rng(5)
    bank = MemoryBank(capacity=16, rule="adjacent_pairs")
    for t in range(17):  # the first eviction scores every pair
        bank.insert(record(t, rng.standard_normal(8)))
    calls = []

    def counted(a, b):
        calls.append(1)
        return cosine_similarity(a, b)

    monkeypatch.setattr(carrier_module, "cosine_similarity", counted)
    for t in range(17, 117):
        calls.clear()
        assert bank.insert(record(t, rng.standard_normal(8))) is not None
        assert len(calls) <= 2


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 1),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12),
)
def test_bank_never_exceeds_capacity(capacity, rule_idx, seeds):
    rule = ("adjacent_pairs", "vs_incoming")[rule_idx]
    bank = MemoryBank(capacity=capacity, rule=rule)
    for t, s in enumerate(seeds):
        emb = np.random.default_rng(s).standard_normal(6)
        bank.insert(record(t, emb))
        assert len(bank) <= capacity
        assert bank.frame_indices() == sorted(bank.frame_indices())


def test_oracle_and_similarity_agree_on_slot_scores():
    rng = np.random.default_rng(3)
    embs = [rng.standard_normal(5) for _ in range(4)]
    incoming = rng.standard_normal(5)
    slot, score = oracle_select_victim(embs, incoming, "vs_incoming")
    scores = [cosine_similarity(e, incoming) for e in embs]
    assert slot == int(np.argmax(scores))
    assert score == pytest.approx(max(scores))
