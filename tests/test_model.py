import copy
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multirate.augment import source_indices
from multirate.errors import NonIntegerRatio, ValidationFailure
from multirate.model import (
    AlignedEpisode,
    AugmentedDataset,
    DatasetManifest,
    Episode,
    FrameRecord,
    FrameStream,
    Method,
    Provenance,
    RobotStream,
    exact_ratio,
    step_dtype,
)

from conftest import make_episode


@pytest.mark.parametrize(
    "robot,frame,ratio",
    [(1000, 100, 10), (100, 100, 1), (500, 50, 10), (120, 40, 3), (7, 7, 1)],
)
def test_exact_ratio(robot, frame, ratio):
    assert exact_ratio(robot, frame) == ratio


@pytest.mark.parametrize("robot,frame", [(1000, 300), (999, 100), (100, 1000), (50, 7)])
def test_exact_ratio_rejects_non_integer(robot, frame):
    with pytest.raises(NonIntegerRatio):
        exact_ratio(robot, frame)


def test_exact_ratio_rejects_nonpositive():
    with pytest.raises(ValidationFailure):
        exact_ratio(0, 1)


@pytest.mark.parametrize(
    "seq,ratio,idx", [(0, 10, 0), (3, 10, 30), (7, 3, 21), (9, 1, 9), (4, 12, 48)]
)
def test_frame_anchor_index(seq, ratio, idx):
    """Offset 0 of frame `seq` is the sample captured with it: seq * ratio."""
    raw, clipped = source_indices((0,), ratio, seq + 1, idx + 1)
    assert raw[0, seq] == clipped[0, seq] == idx


@pytest.mark.parametrize(
    "index,length,expected",
    [(-4, 100, 0), (0, 100, 0), (55, 100, 55), (99, 100, 99), (105, 100, 99), (0, 1, 0), (-1, 1, 0)],
)
def test_clamp_index(index, length, expected):
    """At frame 0 the raw index is the offset itself, clipped into [0, length - 1]."""
    raw, clipped = source_indices((index,), 1, 1, length)
    assert raw.tolist() == [[index]]
    assert clipped.tolist() == [[expected]]


@given(st.integers(-1000, 1000), st.integers(1, 500))
def test_clamp_index_always_in_range(index, length):
    _, clipped = source_indices((index,), 1, 1, length)
    out = int(clipped[0, 0])
    assert 0 <= out <= length - 1
    if 0 <= index < length:
        assert out == index


def test_source_indices_rejects_bad_args():
    with pytest.raises(ValidationFailure):
        source_indices((0,), 0, 3, 10)
    with pytest.raises(ValidationFailure):
        source_indices((0,), 1, 3, 0)


def test_robot_stream_shape_and_readonly():
    data = np.zeros((5, 2, 3))
    stream = RobotStream(rate_hz=100, data=data)
    assert stream.sample_count == 5 and stream.joints == 2
    with pytest.raises(ValueError):
        stream.data[0, 0, 0] = 1.0
    # the stored array is a copy, mutating the source does not leak in
    data[0, 0, 0] = 7.0
    assert stream.data[0, 0, 0] == 0.0
    # so is a read-only view while the memory under it can still change
    buffer = bytearray(data.tobytes())
    for view, source in ((data.view(), data), (np.frombuffer(buffer), buffer)):
        view.setflags(write=False)
        stream = RobotStream(rate_hz=100, data=view.reshape(5, 2, 3))
        source[0] = 1  # the first row of `data`, the first byte of `buffer`
        assert stream.data[0, 0, 0] == 7.0


@pytest.mark.parametrize("shape", [(5, 2), (5, 2, 2), (0, 2, 3), (5, 0, 3)])
def test_robot_stream_rejects_bad_shape(shape):
    with pytest.raises(ValidationFailure):
        RobotStream(rate_hz=100, data=np.zeros(shape))


def test_robot_stream_rejects_nonfinite():
    data = np.zeros((3, 1, 3))
    data[1, 0, 1] = np.inf
    with pytest.raises(ValidationFailure):
        RobotStream(rate_hz=100, data=data)


def test_frame_stream_requires_contiguous_seqs():
    recs = (FrameRecord(seq=0, payload=b"a"), FrameRecord(seq=2, payload=b"b"))
    with pytest.raises(ValidationFailure):
        FrameStream(camera_id="cam", rate_hz=10, records=recs)


def test_frame_stream_holds_its_packed_frame_file():
    recs = (FrameRecord(seq=0, payload=b"ab"), FrameRecord(seq=1, payload=b""))
    fs = FrameStream("cam", 10, recs)
    assert fs.packed == struct.pack("<QQ", 0, 2) + b"ab" + struct.pack("<QQ", 1, 0)
    assert fs.starts.tolist() == [16, 34] and fs.frame_count == 2
    assert fs.records == recs
    same = FrameStream.from_packed("cam", 10, fs.packed, [16, 34])
    assert same == fs and hash(same) == hash(fs) and same.packed is fs.packed
    assert FrameStream("cam", 10, recs[:1]) != fs != FrameStream("other", 10, recs)


@pytest.mark.parametrize("starts", [[0, 34], [16, 20], [16, 40], [16, 18, 34], [16]])
def test_frame_stream_rejects_starts_that_miss_the_headers(starts):
    fs = FrameStream("cam", 10, (FrameRecord(seq=0, payload=b"ab"), FrameRecord(seq=1, payload=b"")))
    with pytest.raises(ValidationFailure, match="payload starts do not match"):
        FrameStream.from_packed("cam", 10, fs.packed, starts)


def test_frame_seq_must_fit_the_header():
    with pytest.raises(ValidationFailure, match="64 bits"):
        FrameRecord(seq=1 << 64, payload=b"")


def test_step_dtype_is_built_once_per_joint_count():
    assert step_dtype(4) is step_dtype(4)


def test_episode_invariants_hold():
    ep = make_episode(t_len=95, joints=3, ratio=10, frame_count=10)
    assert ep.ratio == 10
    assert ep.sample_count == 95
    assert ep.frame_count == 10
    assert ep.joints == 3


def test_episode_rejects_rate_mismatch():
    ep = make_episode(t_len=21, joints=1, ratio=2)
    bad_follower = RobotStream(rate_hz=ep.leader.rate_hz * 2, data=ep.follower.data)
    with pytest.raises(ValidationFailure):
        Episode(
            episode_id="x",
            leader=ep.leader,
            follower=bad_follower,
            frame_streams=ep.frame_streams,
        )


def test_episode_rejects_short_stream():
    # 10 frames at ratio 10 need at least 91 samples
    with pytest.raises(ValidationFailure):
        make_episode(t_len=90, joints=1, ratio=10, frame_count=10)
    make_episode(t_len=91, joints=1, ratio=10, frame_count=10)


def test_episode_rejects_non_integer_ratio():
    ep = make_episode(t_len=21, joints=1, ratio=2)
    odd = RobotStream(rate_hz=25, data=ep.leader.data)
    with pytest.raises(NonIntegerRatio):
        Episode(
            episode_id="x",
            leader=odd,
            follower=RobotStream(rate_hz=25, data=ep.follower.data),
            frame_streams=ep.frame_streams,
        )


def test_episode_equality_is_by_content():
    a = make_episode(t_len=21, joints=2, ratio=2, seed=5)
    b = make_episode(t_len=21, joints=2, ratio=2, seed=5)
    c = make_episode(t_len=21, joints=2, ratio=2, seed=6)
    assert a == b
    assert a != c


def test_method_from_name():
    assert Method.from_name("dabi") is Method.DABI
    assert Method.from_name("Forward") is Method.FORWARD
    with pytest.raises(ValidationFailure):
        Method.from_name("nearest")


def _rows(joints, steps=2, index_type="<u8", obs_width=None, act_width=None):
    width = 3 * joints
    dtype = [
        ("source_index", index_type),
        ("observation", "<f8", (obs_width or width,)),
        ("action", "<f8", (act_width or width,)),
    ]
    return np.zeros(steps, dtype=dtype)


PROV = Provenance(source_episode_id="ep", offset=0)


def test_aligned_episode_validation():
    rows = _rows(joints=2)
    rows["source_index"] = [3, 4]
    rows["action"] = 1.0
    sub = AlignedEpisode(rows=rows, cameras=("cam",), provenance=PROV)
    assert sub.joints == 2 and sub.step_count == 2
    assert sub.rows.dtype == step_dtype(2)
    assert sub.source_index.tolist() == [3, 4]
    assert sub.observation.shape == sub.action.shape == (2, 6)
    # the stored rows are read-only and detached from the caller's array
    with pytest.raises(ValueError):
        sub.rows["source_index"][0] = 9
    rows["source_index"][0] = 9
    assert sub.source_index[0] == 3
    bad = [
        _rows(joints=2, obs_width=5, act_width=5),  # width not a multiple of 3
        _rows(joints=2, act_width=3),  # observation and action disagree
        _rows(joints=2, index_type="<i8"),  # signed indices could be negative
        _rows(joints=2, steps=0),  # no steps
        np.zeros(2, dtype=[("i", "<u8"), ("observation", "<f8", (6,)), ("action", "<f8", (6,))]),
        np.zeros((2, 6)),
    ]
    nonfinite = _rows(joints=2)
    nonfinite["observation"][1, 4] = np.nan
    bad.append(nonfinite)
    for rows in bad:
        with pytest.raises(ValidationFailure):
            AlignedEpisode(rows=rows, cameras=("cam",), provenance=PROV)
    with pytest.raises(ValidationFailure):
        AlignedEpisode(rows=_rows(joints=2), cameras=(), provenance=PROV)


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "a\\b", "../up"])
def test_frame_stream_rejects_path_like_camera_id(name):
    with pytest.raises(ValidationFailure):
        FrameStream(camera_id=name, rate_hz=10, records=(FrameRecord(seq=0, payload=b""),))


def test_aligned_episode_copies_views_of_changeable_memory():
    rows = _rows(joints=1, steps=3)
    view = rows.view()
    view.setflags(write=False)
    sub = AlignedEpisode(rows=view, cameras=("cam",), provenance=PROV)
    rows["observation"][1, 0] = np.nan  # written through the base, past the finiteness check
    assert np.isfinite(sub.observation).all()
    # the owner of a read-only array can make it writable again
    owned = _rows(joints=1, steps=3)
    owned.setflags(write=False)
    sub = AlignedEpisode(rows=owned, cameras=("cam",), provenance=PROV)
    owned.setflags(write=True)
    owned["observation"][1, 0] = np.nan
    assert np.isfinite(sub.observation).all()
    assert not sub.rows.flags.writeable
    # a view of bytes, which nothing can change, is kept as it is
    loaded = np.frombuffer(_rows(joints=1, steps=3).tobytes(), dtype=step_dtype(1))
    assert AlignedEpisode(rows=loaded, cameras=("cam",), provenance=PROV).rows is loaded


def _sub(source, offset, joints=1):
    return AlignedEpisode(
        rows=_rows(joints=joints, steps=2), cameras=("cam",),
        provenance=Provenance(source_episode_id=source, offset=offset),
    )


def test_dataset_groups_sub_episodes_by_source():
    # manifest order b, a, c; c's two slots are taken by a and b
    subs = [_sub("a", 1), _sub("b", 0), _sub("a", 0), _sub("b", 1), _sub("a", 1), _sub("b", 0)]
    manifest = DatasetManifest(method=Method.FORWARD, ratio=2, source_episode_ids=("b", "a", "c"))
    ds = AugmentedDataset(episodes=subs, manifest=manifest)
    # keys in manifest order, each source's sub-episodes in stored order
    position = {id(sub): i for i, sub in enumerate(ds.episodes)}
    got = [(src, [position[id(sub)] for sub in group]) for src, group in ds.by_source.items()]
    assert got == [("b", [1, 3, 5]), ("a", [0, 2, 4]), ("c", [])]
    assert ds.by_source["c"] == ()
    with pytest.raises(TypeError):
        ds.by_source["c"] = (subs[0],)
    # a dataset still pickles and deep-copies, with its grouping
    for clone in (pickle.loads(pickle.dumps(ds)), copy.deepcopy(ds)):
        assert clone == ds and [len(g) for g in clone.by_source.values()] == [3, 3, 0]


def test_dataset_holds_one_joint_count():
    manifest = DatasetManifest(method=Method.FORWARD, ratio=2, source_episode_ids=("a",))
    AugmentedDataset(episodes=[_sub("a", 0, joints=2), _sub("a", 1, joints=2)], manifest=manifest)
    with pytest.raises(ValidationFailure, match="source a offset 1: 3 joints, but the first"):
        AugmentedDataset(
            episodes=[_sub("a", 0, joints=2), _sub("a", 1, joints=3)], manifest=manifest
        )
