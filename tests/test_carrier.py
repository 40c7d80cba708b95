import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
