import copy
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multirate.augment import source_indices
from multirate.errors import MultirateError, NonIntegerRatio, ParseFailure, ValidationFailure
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
    is_plain_name,
    make_offsets,
    step_dtype,
)

from conftest import BASE_FRAME_HZ, make_episode


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


@pytest.mark.parametrize("name", [5, None, b"cam", ["cam"]])
def test_a_camera_id_that_is_not_a_string_is_refused(name):
    assert not is_plain_name(name)
    with pytest.raises(ValidationFailure) as exc:
        FrameStream(name, 10, [FrameRecord(0, b"")])
    assert str(exc.value) == f"camera_id {name!r} must be a non-empty name without path parts"


def test_frame_stream_holds_its_packed_frame_file():
    recs = (FrameRecord(seq=0, payload=b"ab"), FrameRecord(seq=1, payload=b""))
    fs = FrameStream("cam", 10, recs)
    assert fs.packed == struct.pack("<QQ", 0, 2) + b"ab" + struct.pack("<QQ", 1, 0)
    assert fs.starts.tolist() == [16, 34] and fs.frame_count == 2
    assert fs.records == recs
    same = FrameStream.from_packed("cam", 10, fs.packed)
    assert same == fs and hash(same) == hash(fs) and same.packed is fs.packed
    assert FrameStream("cam", 10, recs[:1]) != fs != FrameStream("other", 10, recs)


def _gathered_header_checks(camera_id, packed):
    """The reference: every header gathered by walking the records in turn, then checked."""
    starts, seqs, pos = [], [], 0
    while pos < len(packed):
        if pos + 16 > len(packed):
            raise ParseFailure(f"truncated record header at byte {pos}")
        seq, length = struct.unpack_from("<QQ", packed, pos)
        if pos + 16 + length > len(packed):
            raise ParseFailure(f"record {seq} payload runs past end of file")
        starts.append(pos + 16)
        seqs.append(seq)
        pos += 16 + length
    for position, seq in enumerate(seqs):
        if seq != position:
            raise ValidationFailure(
                f"camera {camera_id}: frame seqs must be 0..F-1 in order, "
                f"got seq {seq} at position {position}"
            )
    return starts


def _outcome(fn):
    try:
        return "ok", fn()
    except MultirateError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 40), min_size=1, max_size=20),
    uniform=st.booleans(),
    fault=st.sampled_from([None, "seq", "length"]),
    at=st.integers(0, 10**6),
    junk=st.one_of(st.integers(0, 60), st.integers(0, 2**64 - 1)),
)
def test_from_packed_checks_headers_as_the_gathered_block_does(lengths, uniform, fault, at, junk):
    if uniform:
        lengths = [lengths[0]] * len(lengths)
    packed = bytearray(b"".join(
        struct.pack("<QQ", k, n) + bytes([k % 256]) * n for k, n in enumerate(lengths)
    ))
    starts = (16 * np.arange(1, len(lengths) + 1) + np.cumsum([0, *lengths[:-1]])).tolist()
    if fault is not None:
        # one seq or length word overwritten: a small length may still tile the file
        k = at % len(lengths)
        field = starts[k] - 16 + (8 if fault == "length" else 0)
        packed[field:field + 8] = junk.to_bytes(8, "little")
    packed = bytes(packed)
    want = _outcome(lambda: _gathered_header_checks("cam", packed))
    got = _outcome(lambda: FrameStream.from_packed("cam", 10, packed).starts.tolist())
    assert got == want
    if fault is None:
        assert got == ("ok", starts)


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


def _restream(ep, camera, rate_hz=BASE_FRAME_HZ, frames=None):
    """A stream of `ep`'s first camera's records, under another id, rate or frame count."""
    return FrameStream(camera, rate_hz, ep.frame_streams[0].records[:frames])


# each Episode refusal the others do not reach first: the change to a sound episode's
# parts, and the message
EPISODE_REFUSALS = {
    "empty-id": (lambda ep: {"episode_id": ""}, "episode_id must be non-empty"),
    "shape-mismatch": (
        lambda ep: {"follower": RobotStream(ep.follower.rate_hz, ep.follower.data[:-1])},
        "leader shape (21, 2, 3) != follower shape (20, 2, 3)",
    ),
    "no-streams": (lambda ep: {"frame_streams": ()}, "episode needs at least one frame stream"),
    "duplicate-cameras": (
        lambda ep: {"frame_streams": (_restream(ep, "a"), _restream(ep, "a"))},
        "duplicate camera ids: ['a', 'a']",
    ),
    "frame-rates-differ": (
        lambda ep: {"frame_streams": (_restream(ep, "a"), _restream(ep, "b", rate_hz=20))},
        "frame streams disagree on rate: [10, 20]",
    ),
    "frame-counts-differ": (
        lambda ep: {"frame_streams": (_restream(ep, "a"), _restream(ep, "b", frames=-1))},
        "frame streams disagree on frame count: [10, 11]",
    ),
}


@pytest.mark.parametrize("case", sorted(EPISODE_REFUSALS))
def test_episode_refuses_parts_that_disagree(case):
    ep = make_episode(t_len=21, joints=2, ratio=2)
    change, message = EPISODE_REFUSALS[case]
    parts = dict(episode_id=ep.episode_id, leader=ep.leader, follower=ep.follower,
                 frame_streams=ep.frame_streams)
    with pytest.raises(ValidationFailure) as exc:
        Episode(**{**parts, **change(ep)})
    assert str(exc.value) == message


# the refusals of the model's other constructors and of make_offsets, each with its message
MODEL_REFUSALS = {
    "robot-rate-below-one": (
        lambda: RobotStream(rate_hz=0, data=np.zeros((1, 1, 3))), "robot rate must be >= 1 Hz, got 0"
    ),
    "frame-seq-negative": (
        lambda: FrameRecord(seq=-1, payload=b""), "frame seq must be >= 0, got -1"
    ),
    "frame-rate-below-one": (
        lambda: FrameStream("cam", 0, [FrameRecord(0, b"")]), "frame rate must be >= 1 Hz, got 0"
    ),
    "no-frame": (
        lambda: FrameStream("cam", 10, []), "frame stream must hold at least one frame"
    ),
    "packed-not-bytes": (
        lambda: FrameStream.from_packed("cam", 10, bytearray(16)),
        "packed frames must be bytes, got bytearray",
    ),
    "dataset-ratio-below-one": (
        lambda: DatasetManifest(Method.DABI, 0, ("a",)), "ratio must be >= 1, got 0"
    ),
    "dataset-without-ids": (
        lambda: DatasetManifest(Method.DABI, 2, ()), "dataset needs at least one source episode id"
    ),
    "unknown-method": (lambda: make_offsets("dabi", 2), "unknown method 'dabi'"),
}


@pytest.mark.parametrize("case", sorted(MODEL_REFUSALS))
def test_model_refusals_name_their_rule(case):
    build, message = MODEL_REFUSALS[case]
    with pytest.raises(ValidationFailure) as exc:
        build()
    assert str(exc.value) == message


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


# index words whose bits, read as float64, are NaN, +-inf, subnormal or -0.0
_ODD_INDEX_WORDS = (
    0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000000, 0xFFFFFFFFFFFFFFFF,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x0000000000000001, 0x000FFFFFFFFFFFFF,
    0x8000000000000000,
)


def _finite_by_field(rows):
    """The reference: each observation and action value tested on its own."""
    return all(
        math.isfinite(value)
        for row in rows.tolist() for vector in row[1:] for value in vector
    )


@settings(max_examples=300, deadline=None)
@given(
    joints=st.integers(1, 6),
    steps=st.integers(1, 50),
    layout=st.sampled_from(["contiguous", "offset", "strided", "bytes"]),
    seed=st.integers(0, 2**32 - 1),
    words=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(_ODD_INDEX_WORDS)), max_size=4
    ),
    plant=st.none() | st.tuples(
        st.sampled_from(["observation", "action"]), st.integers(0, 10**6),
        st.integers(0, 10**6), st.sampled_from([math.nan, math.inf, -math.inf]),
    ),
)
def test_one_pass_finiteness_agrees_with_the_per_field_check(
    joints, steps, layout, seed, words, plant
):
    stride = 3 if layout == "strided" else 1
    start = 1 if layout in ("offset", "strided") else 0
    base = np.zeros(start + steps * stride, dtype=step_dtype(joints))
    rng = np.random.default_rng(seed)
    for name in ("observation", "action"):
        base[name] = rng.normal(scale=1e3, size=base[name].shape)
    base["source_index"] = rng.integers(0, 10**6, size=len(base), dtype=np.uint64)
    rows = base[start::stride][:steps]
    for position, word in words:
        rows["source_index"][position % steps] = word
    if plant is not None:
        name, step, column, value = plant
        rows[name][step % steps, column % (3 * joints)] = value
    if layout == "bytes":
        rows = np.frombuffer(rows.tobytes(), dtype=step_dtype(joints))
    assert rows.flags.c_contiguous == (layout != "strided" or steps == 1)
    # index words never count, and one planted value always does
    assert _finite_by_field(rows) == (plant is None)
    if plant is None:
        sub = AlignedEpisode(rows=rows, cameras=("cam",), provenance=PROV)
        assert sub.rows.tobytes() == rows.tobytes()
    else:
        with pytest.raises(ValidationFailure) as exc:
            AlignedEpisode(rows=rows, cameras=("cam",), provenance=PROV)
        assert str(exc.value) == "step vectors contain non-finite values"


def _sub(source, offset, joints=1):
    return AlignedEpisode(
        rows=_rows(joints=joints, steps=2), cameras=("cam",),
        provenance=Provenance(source_episode_id=source, offset=offset),
    )


def test_dataset_groups_sub_episodes_by_source():
    # manifest order b, a, c; stored interleaved
    subs = [_sub("a", 1), _sub("b", 0), _sub("c", 1), _sub("a", 0), _sub("b", 1), _sub("c", 0)]
    manifest = DatasetManifest(method=Method.FORWARD, ratio=2, source_episode_ids=("b", "a", "c"))
    ds = AugmentedDataset(episodes=subs, manifest=manifest)
    # keys in manifest order, each source's sub-episodes in stored order
    position = {id(sub): i for i, sub in enumerate(ds.episodes)}
    got = [(src, [position[id(sub)] for sub in group]) for src, group in ds.by_source.items()]
    assert got == [("b", [1, 4]), ("a", [0, 3]), ("c", [2, 5])]
    with pytest.raises(TypeError):
        ds.by_source["c"] = (subs[0],)
    # a dataset still pickles and deep-copies, with its grouping
    for clone in (pickle.loads(pickle.dumps(ds)), copy.deepcopy(ds)):
        assert clone == ds and [len(g) for g in clone.by_source.values()] == [2, 2, 2]
    # c's two slots taken by a and b: the count passes, b's window does not
    taken = [_sub("a", 1), _sub("b", 0), _sub("a", 0), _sub("b", 1), _sub("a", 1), _sub("b", 0)]
    with pytest.raises(ValidationFailure) as exc:
        AugmentedDataset(episodes=taken, manifest=manifest)
    assert str(exc.value) == "source b: offsets [0, 0, 1] != expected [0, 1]"


def test_dataset_holds_one_joint_count():
    manifest = DatasetManifest(method=Method.FORWARD, ratio=2, source_episode_ids=("a",))
    AugmentedDataset(episodes=[_sub("a", 0, joints=2), _sub("a", 1, joints=2)], manifest=manifest)
    with pytest.raises(ValidationFailure, match="source a offset 1: 3 joints, but the first"):
        AugmentedDataset(
            episodes=[_sub("a", 0, joints=2), _sub("a", 1, joints=3)], manifest=manifest
        )
