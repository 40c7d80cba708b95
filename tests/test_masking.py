import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrierstream import (
    LayoutError,
    SegmentLayout,
    build_dense_layout,
    build_semantic_mask,
    build_streaming_mask,
    remove_carrier_visibility,
)


def test_layout_arithmetic():
    lay = SegmentLayout(system=2, frame_sizes=(3, 3), text=2)
    assert lay.total == 2 + 4 + 4 + 2
    assert lay.frame_span(0) == (2, 5)
    assert lay.carrier_pos(0) == 5
    assert lay.frame_span(1) == (6, 9)
    assert lay.carrier_pos(1) == 9
    assert lay.text_start == 10
    assert lay.tags() == (
        ["system"] * 2 + ["frame"] * 3 + ["carrier"] + ["frame"] * 3 + ["carrier"] + ["text"] * 2
    )
    assert lay.frame_of() == [-1, -1, 0, 0, 0, 0, 1, 1, 1, 1, -1, -1]
    with pytest.raises(LayoutError):
        SegmentLayout(system=-1)


def test_layout_empty_frames_is_carriers_only():
    lay = SegmentLayout(system=1, frame_sizes=(0, 0, 0), text=2)
    assert lay.carrier_positions == [1, 2, 3]
    assert lay.tags() == ["system", "carrier", "carrier", "carrier", "text", "text"]


def test_semantic_mask_hand_case():
    # system=1, two frames of 2 tokens, text=2
    # positions: 0=sys 1,2=frame0 3=carrier0 4,5=frame1 6=carrier1 7,8=text
    mask = build_semantic_mask(SegmentLayout(system=1, frame_sizes=(2, 2), text=2))
    expect = np.zeros((9, 9), dtype=bool)
    expect[0, 0] = True
    expect[1, [0, 1]] = True
    expect[2, [0, 1, 2]] = True
    expect[3, [0, 1, 2, 3]] = True
    expect[4, [0, 3, 4]] = True  # frame1 sees carrier0, not frame0's rows
    expect[5, [0, 3, 4, 5]] = True
    expect[6, [0, 3, 4, 5, 6]] = True
    expect[7, [0, 3, 6, 7]] = True  # text sees every carrier, no raw rows
    expect[8, [0, 3, 6, 7, 8]] = True
    np.testing.assert_array_equal(mask.allow, expect)
    assert mask.allow.any(axis=1).all()  # no query row without a key
    assert not np.triu(mask.allow, k=1).any()  # causal


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(st.integers(0, 4), min_size=1, max_size=4),
    st.integers(1, 3),
)
def test_semantic_mask_invariants(system, frame_sizes, text):
    lay = SegmentLayout(system=system, frame_sizes=tuple(frame_sizes), text=text)
    mask = build_semantic_mask(lay)
    allow = mask.allow
    frame_of = np.array(lay.frame_of())
    tags = np.array(lay.tags())

    # every entry follows the per-segment rules
    s, carriers = lay.system, lay.carrier_positions
    expect = np.zeros_like(allow)
    for i in range(s):  # system: causal within system
        expect[i, : i + 1] = True
    for t in range(lay.num_frames):
        fstart, cpos = lay.frame_span(t)
        for i in range(fstart, cpos + 1):  # frame t and carrier t
            expect[i, :s] = True
            expect[i, carriers[:t]] = True
            expect[i, fstart : i + 1] = True
    for i in range(lay.text_start, lay.total):  # text
        expect[i, :s] = True
        expect[i, carriers] = True
        expect[i, lay.text_start : i + 1] = True
    np.testing.assert_array_equal(allow, expect)

    # causal everywhere
    assert not np.triu(allow, k=1).any()
    # raw frame tokens are never keys outside their own frame
    for key in np.flatnonzero(tags == "frame"):
        for q in np.flatnonzero(allow[:, key]):
            assert frame_of[q] == frame_of[key]
    # every row sees itself, so none degenerates
    assert np.diag(allow).all()


def test_streaming_mask_matches_semantic_rows():
    # Segment by segment, every new row of the full mask allows the whole
    # cacheable prefix, and the streaming mask equals its block over the
    # new tokens.
    lay = SegmentLayout(system=2, frame_sizes=(3, 3), text=2)
    full = build_semantic_mask(lay)
    tags = lay.tags()

    cache: list[int] = []  # global positions of cached entries

    def check(kind, count, new_positions):
        stream = build_streaming_mask(kind, count)
        for q in new_positions:
            assert full.allow[q, cache].all()
        np.testing.assert_array_equal(stream.allow, full.allow[new_positions][:, new_positions])
        assert list(stream.tags) == [tags[p] for p in new_positions]

    check("system", 2, [0, 1])
    cache.extend([0, 1])
    check("frame", 3, [2, 3, 4, 5])
    cache.append(5)  # only the carrier is retained
    check("frame", 3, [6, 7, 8, 9])
    cache.append(9)
    check("text", 2, [10, 11])


def test_streaming_mask_rejects_unknown_inputs():
    with pytest.raises(LayoutError):
        build_streaming_mask("carrier", 2)
    with pytest.raises(LayoutError):
        build_streaming_mask("bogus", 1)


def test_remove_carrier_visibility():
    lay = SegmentLayout(system=1, frame_sizes=(2, 2), text=2)
    mask = build_semantic_mask(lay)
    hidden = remove_carrier_visibility(mask, 0)
    cpos = lay.carrier_pos(0)
    col = hidden.allow[:, cpos]
    assert col[cpos]  # self-attention survives
    assert not np.delete(col, cpos).any()
    # everything else untouched
    rest = np.delete(np.arange(lay.total), cpos)
    np.testing.assert_array_equal(hidden.allow[:, rest], mask.allow[:, rest])


@pytest.mark.parametrize("carrier_mode", ["mean", "last_token"])
def test_embedding_only_layout_is_the_inherited_one_without_frame_rows(carrier_mode):
    # the carriers-only layout keeps every non-frame row of the full one,
    # with the same embedding, position and mask entries
    rng = np.random.default_rng(0)
    system = rng.standard_normal((2, 4))
    frames = rng.standard_normal((3, 5, 3, 4))  # 3 streams of 5 frames, N=3, d=4
    text = rng.standard_normal((3, 2, 4))
    full_emb, full_pos, full = build_dense_layout(system, frames, text, carrier_mode, "inherited")
    emb, pos, spec = build_dense_layout(system, frames, text, carrier_mode, "embedding_only")
    kept = np.array(full.tags) != "frame"
    np.testing.assert_array_equal(full_pos, np.arange(2 + 5 * 4 + 2))
    np.testing.assert_array_equal(pos, full_pos[kept])
    np.testing.assert_array_equal(emb, full_emb[:, kept])
    np.testing.assert_array_equal(spec.allow, full.allow[kept][:, kept])
    assert spec.tags == tuple(np.array(full.tags)[kept])
    assert spec.layout == SegmentLayout(system=2, frame_sizes=(0,) * 5, text=2)
