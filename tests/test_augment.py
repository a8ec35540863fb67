import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirate.augment import (
    augment,
    count_clamped,
    evenness_report,
    make_offsets,
    slice_episode,
    source_indices,
)
from multirate.errors import (
    EmptyInput,
    MixedRatio,
    ProvenanceMismatch,
    ValidationFailure,
)
from multirate.model import AlignedEpisode, Method

from conftest import episode_strategy, make_episode

# Frozen offset windows, worked out by hand from the window definitions.
OFFSET_ORACLE = {
    (Method.DOWNSAMPLE, 10): [0],
    (Method.DOWNSAMPLE, 1): [0],
    (Method.FORWARD, 1): [0],
    (Method.FORWARD, 4): [0, 1, 2, 3],
    (Method.FORWARD, 10): [0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
    (Method.DABI, 1): [0],
    (Method.DABI, 2): [0, 1],
    (Method.DABI, 3): [-1, 0, 1],
    (Method.DABI, 4): [-1, 0, 1, 2],
    (Method.DABI, 5): [-2, -1, 0, 1, 2],
    (Method.DABI, 10): [-4, -3, -2, -1, 0, 1, 2, 3, 4, 5],
}


@pytest.mark.parametrize("key,expected", sorted(OFFSET_ORACLE.items(), key=str))
def test_make_offsets_oracle(key, expected):
    method, ratio = key
    assert list(make_offsets(method, ratio)) == expected


@pytest.mark.parametrize("ratio", range(1, 13))
@pytest.mark.parametrize("method", list(Method))
def test_offset_window_contract(method, ratio):
    offs = make_offsets(method, ratio)
    assert 0 in offs
    assert list(offs) == sorted(offs)
    assert list(offs) == list(range(offs[0], offs[-1] + 1))
    if method is Method.DOWNSAMPLE:
        assert offs == (0,)
    else:
        assert len(offs) == ratio
        if method is Method.FORWARD:
            assert offs[0] == 0 and offs[-1] == ratio - 1
        else:
            # symmetric window, biased forward when the between-count is odd
            assert offs[-1] - (-offs[0]) in (0, 1)


@pytest.mark.parametrize("ratio", range(1, 13))
def test_offset_window_mean(ratio):
    forward = make_offsets(Method.FORWARD, ratio)
    assert sum(forward) / len(forward) == (ratio - 1) / 2
    dabi = make_offsets(Method.DABI, ratio)
    assert sum(dabi) / len(dabi) in (0.0, 0.5)


def test_make_offsets_rejects_bad_ratio():
    with pytest.raises(ValidationFailure):
        make_offsets(Method.DABI, 0)


def test_episode_ratio():
    assert make_episode(t_len=100, joints=2, ratio=10).ratio == 10
    assert make_episode(t_len=5, joints=2, ratio=1).ratio == 1


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(list(Method)),
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(-12, 12),
)
def test_source_indices_match_scalar_reference(method, ratio, frame_count, extra):
    # extra < 0 cuts the recording short of the last anchor, so both ends clamp
    t_len = max(1, (frame_count - 1) * ratio + 1 + extra)
    offsets = make_offsets(method, ratio)
    raw, clipped = source_indices(offsets, ratio, frame_count, t_len)
    assert raw.dtype == clipped.dtype == np.int64
    assert raw.shape == clipped.shape == (len(offsets), frame_count)
    for i, off in enumerate(offsets):
        for k in range(frame_count):
            assert raw[i, k] == k * ratio + off
            assert clipped[i, k] == min(max(k * ratio + off, 0), t_len - 1)


def _source_indices(sub):
    return sub.source_index.tolist()


def test_slice_indices_oracle():
    ep = make_episode(t_len=100, joints=2, ratio=10, frame_count=10)
    assert _source_indices(slice_episode(ep, 0)) == list(range(0, 100, 10))
    assert _source_indices(slice_episode(ep, -4)) == [
        0, 6, 16, 26, 36, 46, 56, 66, 76, 86,
    ]
    assert _source_indices(slice_episode(ep, 5)) == [
        5, 15, 25, 35, 45, 55, 65, 75, 85, 95,
    ]
    assert _source_indices(slice_episode(ep, 9)) == [
        9, 19, 29, 39, 49, 59, 69, 79, 89, 99,
    ]


def test_slice_step_payloads():
    ep = make_episode(t_len=100, joints=3, ratio=10, frame_count=10, cameras=("a", "b"))
    sub = slice_episode(ep, 2)
    assert sub.step_count == ep.frame_count
    assert sub.cameras == ("a", "b")
    for k, idx in enumerate(sub.source_index.tolist()):
        assert idx == k * 10 + 2
        np.testing.assert_array_equal(sub.observation[k], ep.follower.data[idx].reshape(-1))
        np.testing.assert_array_equal(sub.action[k], ep.leader.data[idx].reshape(-1))


def test_slice_observation_is_joint_major():
    ep = make_episode(t_len=10, joints=2, ratio=1)
    sub = slice_episode(ep, 0)
    observation = sub.observation[3]
    follower = ep.follower.data[3]
    assert observation[0] == follower[0, 0]  # joint 0 angle
    assert observation[1] == follower[0, 1]  # joint 0 velocity
    assert observation[2] == follower[0, 2]  # joint 0 torque
    assert observation[3] == follower[1, 0]  # joint 1 angle


@pytest.mark.parametrize(
    "method,per_source", [(Method.DOWNSAMPLE, 1), (Method.FORWARD, 10), (Method.DABI, 10)]
)
def test_augment_cardinality(method, per_source):
    eps = [
        make_episode(t_len=100, joints=2, ratio=10, seed=i, episode_id=f"ep-{i}")
        for i in range(3)
    ]
    ds = augment(eps, method)
    assert ds.episode_count == 3 * per_source
    assert ds.manifest.ratio == 10
    assert ds.manifest.source_episode_ids == ("ep-0", "ep-1", "ep-2")
    # source-major, offsets ascending
    pairs = [(s.provenance.source_episode_id, s.provenance.offset) for s in ds.episodes]
    want = [
        (f"ep-{i}", off) for i in range(3) for off in make_offsets(method, 10)
    ]
    assert pairs == want


def test_augment_rejects_empty():
    with pytest.raises(EmptyInput):
        augment([], Method.DABI)


def test_augment_rejects_mixed_ratio():
    a = make_episode(t_len=100, joints=2, ratio=10, episode_id="a")
    b = make_episode(t_len=50, joints=2, ratio=5, episode_id="b")
    with pytest.raises(MixedRatio):
        augment([a, b], Method.FORWARD)


def test_augment_rejects_mixed_joint_counts():
    a = make_episode(t_len=100, joints=2, ratio=10, episode_id="a")
    b = make_episode(t_len=100, joints=3, ratio=10, episode_id="b")
    with pytest.raises(ValidationFailure, match="3 joints, but the first sub-episode has 2"):
        augment([a, b], Method.DABI)


def test_augment_rejects_duplicate_ids():
    a = make_episode(t_len=100, joints=2, ratio=10, episode_id="same")
    b = make_episode(t_len=100, joints=2, ratio=10, episode_id="same", seed=9)
    with pytest.raises(ValidationFailure):
        augment([a, b], Method.DABI)


def test_evenness_oracle_dabi():
    ep = make_episode(t_len=100, joints=2, ratio=10, frame_count=10)
    ds = augment([ep], Method.DABI)
    rep = evenness_report(ds, ep)
    expected = np.array([5] + [1] * 95 + [0] * 4)
    np.testing.assert_array_equal(rep.counts, expected)
    assert rep.clamped_steps == 4  # offsets -4..-1 at frame 0
    assert rep.referenced_once == 95
    assert rep.unreferenced == 4


def test_count_clamped_follows_the_per_step_rule_on_ragged_sub_episodes():
    """One source's sub-episodes cut to different lengths, one index word wrapped."""
    ep = make_episode(t_len=92, joints=2, ratio=10, seed=3)  # frame 9 at offsets 2.. clamps
    subs = []
    for keep, offset in zip((10, 3, 10, 1, 7, 10, 10, 2, 10, 9), make_offsets(Method.DABI, 10)):
        rows = np.array(slice_episode(ep, offset).rows[:keep])
        if offset == -4:
            rows["source_index"][0] = 2**64 - 4  # raw index -4 wrapped to a u64 word
        subs.append(AlignedEpisode(rows, ep.camera_ids, slice_episode(ep, offset).provenance))
    want = sum(
        k * 10 + sub.provenance.offset < 0 or int(word) != k * 10 + sub.provenance.offset
        for sub in subs
        for k, word in enumerate(sub.source_index)
    )
    assert want == 4 + 2  # frame 0 at offsets -4..-1; frame 9 at 2 and 4, not cut off there
    assert count_clamped(subs, 10) == want
    assert count_clamped(subs[:1], 10) == 1


def test_evenness_oracle_forward():
    ep = make_episode(t_len=100, joints=2, ratio=10, frame_count=10)
    rep = evenness_report(augment([ep], Method.FORWARD), ep)
    np.testing.assert_array_equal(rep.counts, np.ones(100, dtype=np.int64))
    assert rep.clamped_steps == 0


def test_evenness_oracle_downsample():
    ep = make_episode(t_len=100, joints=2, ratio=10, frame_count=10)
    rep = evenness_report(augment([ep], Method.DOWNSAMPLE), ep)
    expected = np.zeros(100, dtype=np.int64)
    expected[::10] = 1
    np.testing.assert_array_equal(rep.counts, expected)
    assert rep.clamped_steps == 0


def test_evenness_rejects_foreign_episode():
    ep = make_episode(t_len=100, joints=2, ratio=10, episode_id="mine")
    other = make_episode(t_len=100, joints=2, ratio=10, episode_id="other")
    ds = augment([ep], Method.DABI)
    with pytest.raises(ProvenanceMismatch):
        evenness_report(ds, other)


def test_evenness_rejects_ratio_mismatch():
    ep10 = make_episode(t_len=100, joints=2, ratio=10, episode_id="same-id")
    ep5 = make_episode(t_len=100, joints=2, ratio=5, episode_id="same-id")
    ds = augment([ep10], Method.FORWARD)
    with pytest.raises(ProvenanceMismatch):
        evenness_report(ds, ep5)


@settings(max_examples=60, deadline=None)
@given(episode_strategy(), st.sampled_from(list(Method)))
def test_augment_structure_property(ep, method):
    ds = augment([ep], method)
    offs = make_offsets(method, ep.ratio)
    assert ds.episode_count == len(offs)
    t_len = ep.sample_count
    for sub, off in zip(ds.episodes, offs):
        assert sub.provenance.offset == off
        assert sub.step_count == ep.frame_count
        for k, index in enumerate(sub.source_index.tolist()):
            raw = k * ep.ratio + off
            assert index == min(max(raw, 0), t_len - 1)


@settings(max_examples=60, deadline=None)
@given(episode_strategy())
def test_anchor_subset_embedding_property(ep):
    base = slice_episode(ep, 0)
    for method in (Method.FORWARD, Method.DABI):
        ds = augment([ep], method)
        zero = [s for s in ds.episodes if s.provenance.offset == 0]
        assert len(zero) == 1
        assert zero[0] == base
