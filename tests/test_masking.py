import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carrierstream import (
    LayoutError,
    SegmentLayout,
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


def test_layout_empty_frames_is_carriers_only():
    lay = SegmentLayout(system=1, frame_sizes=(0, 0, 0), text=2)
    assert lay.carrier_positions == [1, 2, 3]
    assert lay.tags() == ["system", "carrier", "carrier", "carrier", "text", "text"]


def test_from_spans_roundtrip_and_errors():
    lay = SegmentLayout.from_spans(
        system=(0, 2), frames=[((2, 5), 5), ((6, 9), 9)], text=(10, 12)
    )
    assert lay == SegmentLayout(system=2, frame_sizes=(3, 3), text=2)
    with pytest.raises(LayoutError):
        SegmentLayout.from_spans(system=(0, 2), frames=[((1, 4), 4)], text=(5, 6))
    with pytest.raises(LayoutError):  # carrier not adjacent to its frame
        SegmentLayout.from_spans(system=(0, 1), frames=[((1, 3), 4)], text=(5, 6))
    with pytest.raises(LayoutError):
        SegmentLayout(system=-1)


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
    mask.validate()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(st.integers(1, 4), min_size=1, max_size=4),
    st.integers(1, 3),
)
def test_semantic_mask_invariants(system, frame_sizes, text):
    lay = SegmentLayout(system=system, frame_sizes=tuple(frame_sizes), text=text)
    mask = build_semantic_mask(lay)
    allow = mask.allow
    frame_of = np.array(lay.frame_of())
    tags = np.array(lay.tags())

    # causal everywhere
    assert not np.triu(allow, k=1).any()
    # raw frame tokens are never keys outside their own frame
    for key in np.flatnonzero(tags == "frame"):
        for q in np.flatnonzero(allow[:, key]):
            assert frame_of[q] == frame_of[key]
    # text sees every carrier and every system token
    for q in range(lay.text_start, lay.total):
        assert allow[q, lay.carrier_positions].all()
        assert allow[q, : lay.system].all()
    if system > 0:
        mask.validate()


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
