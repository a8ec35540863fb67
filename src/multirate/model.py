"""Core data model: episodes, streams, and aligned sub-episodes.

A demonstration episode carries two high-rate joint streams (leader and
follower arm) plus one or more low-rate camera frame streams.  Alignment
pairs each camera frame with one high-rate sample; the augmentation layer
chooses which sample via per-frame index offsets.
"""

from __future__ import annotations

import enum
import functools
import struct
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

import numpy as np

from .errors import NonIntegerRatio, ValidationFailure

CHANNELS_PER_JOINT = 3  # angle, velocity, torque
FRAME_HEADER = struct.Struct("<QQ")  # seq, payload length: the head of one packed frame record


class Method(enum.Enum):
    """Augmentation method selecting the per-frame offset window."""

    DOWNSAMPLE = "downsample"
    FORWARD = "forward"
    DABI = "dabi"

    @classmethod
    def from_name(cls, name: str) -> "Method":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValidationFailure(
                f"unknown method {name!r}; expected one of "
                + ", ".join(m.value for m in cls)
            ) from None


def make_offsets(method: Method, ratio: int) -> tuple[int, ...]:
    """The per-frame offset window one method uses at rate ratio R.

      downsample  keep only the anchor sample            offsets {0}
      forward     anchor plus everything up to the next  offsets {0 .. R-1}
      dabi        window centred on the anchor, biased   offsets {-(R-1)//2 ..
                  forward when R - 1 is odd                       R-1 - (R-1)//2}
    """
    if ratio < 1:
        raise ValidationFailure(f"ratio must be >= 1, got {ratio}")
    between = ratio - 1  # samples strictly between adjacent frame anchors
    if method is Method.DOWNSAMPLE:
        return (0,)
    if method is Method.FORWARD:
        return tuple(range(ratio))
    if method is Method.DABI:
        back = between // 2
        return tuple(range(-back, between - back + 1))
    raise ValidationFailure(f"unknown method {method!r}")


def exact_ratio(robot_rate_hz: int, frame_rate_hz: int) -> int:
    """Return robot_rate/frame_rate, requiring an exact integer >= 1."""
    if robot_rate_hz < 1 or frame_rate_hz < 1:
        raise ValidationFailure(
            f"rates must be positive, got robot={robot_rate_hz} frame={frame_rate_hz}"
        )
    if robot_rate_hz % frame_rate_hz != 0:
        raise NonIntegerRatio(
            f"robot rate {robot_rate_hz} Hz is not an integer multiple of "
            f"frame rate {frame_rate_hz} Hz"
        )
    return robot_rate_hz // frame_rate_hz


def is_plain_name(name: str) -> bool:
    """True when `name` can serve as one file-name component inside a directory."""
    return name not in ("", ".", "..") and "/" not in name and "\\" not in name


@functools.lru_cache(maxsize=None)
def step_dtype(joints: int) -> np.dtype:
    """One aligned step, laid out exactly as a `steps-*.bin` row (docs/format.md)."""
    if joints < 1:
        raise ValidationFailure(f"steps need at least one joint, got {joints}")
    width = joints * CHANNELS_PER_JOINT
    return np.dtype(
        [("source_index", "<u8"), ("observation", "<f8", (width,)), ("action", "<f8", (width,))]
    )


def _views_immutable_bytes(arr: np.ndarray) -> bool:
    """True when the memory under `arr` is a bytes object, which nothing can change."""
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, bytes)


def _as_readonly_f64(data: Any, shape_desc: str, ndim: int) -> np.ndarray:
    if (
        isinstance(data, np.ndarray)
        and data.dtype == np.float64
        and data.flags.c_contiguous
        and _views_immutable_bytes(data)
    ):
        arr = data  # e.g. a payload parsed in place: already read-only, so no copy
    else:
        arr = np.array(data, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise ValidationFailure(f"{shape_desc}: expected {ndim}-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationFailure(f"{shape_desc}: contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RobotStream:
    """Uniform high-rate joint recording, shape (samples, joints, 3).

    Channel order per joint is (angle, velocity, torque).  The array is
    stored as read-only float64.
    """

    rate_hz: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.rate_hz < 1:
            raise ValidationFailure(f"robot rate must be >= 1 Hz, got {self.rate_hz}")
        arr = _as_readonly_f64(self.data, "RobotStream.data", 3)
        if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] != CHANNELS_PER_JOINT:
            raise ValidationFailure(
                f"RobotStream.data must be (T>=1, J>=1, {CHANNELS_PER_JOINT}), got {arr.shape}"
            )
        object.__setattr__(self, "data", arr)

    @property
    def sample_count(self) -> int:
        return self.data.shape[0]

    @property
    def joints(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RobotStream):
            return NotImplemented
        return self.rate_hz == other.rate_hz and np.array_equal(self.data, other.data)


@dataclass(frozen=True)
class FrameRecord:
    """One camera frame: sequence number plus opaque payload bytes."""

    seq: int
    payload: bytes

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValidationFailure(f"frame seq must be >= 0, got {self.seq}")
        if self.seq >= 1 << 64:
            raise ValidationFailure(f"frame seq must fit in 64 bits, got {self.seq}")


@dataclass(frozen=True, eq=False, init=False)
class FrameStream:
    """Uniform low-rate frame recording from one camera, held as its packed frame file.

    `packed` is the `frames_<camera_id>.bin` payload exactly as on disk
    (docs/format.md): per frame a FRAME_HEADER (seq, payload length), then the
    payload.  `starts[k]` is the offset of frame k's payload in `packed`.
    """

    camera_id: str
    rate_hz: int
    packed: bytes = field(repr=False)
    starts: np.ndarray = field(repr=False)

    def __init__(self, camera_id: str, rate_hz: int, records: Iterable[FrameRecord]) -> None:
        parts, starts, pos = [], [], 0
        for rec in records:
            parts += (FRAME_HEADER.pack(rec.seq, len(rec.payload)), rec.payload)
            pos += FRAME_HEADER.size
            starts.append(pos)
            pos += len(rec.payload)
        self._hold(camera_id, rate_hz, b"".join(parts), starts)

    @classmethod
    def from_packed(
        cls, camera_id: str, rate_hz: int, packed: bytes, starts: Iterable[int]
    ) -> "FrameStream":
        """The stream over a packed frame file whose payloads begin at `starts`; no copy."""
        stream = cls.__new__(cls)
        stream._hold(camera_id, rate_hz, packed, starts)
        return stream

    def _hold(self, camera_id: str, rate_hz: int, packed: bytes, starts: Iterable[int]) -> None:
        if not is_plain_name(camera_id):
            raise ValidationFailure(
                f"camera_id {camera_id!r} must be a non-empty name without path parts"
            )
        if rate_hz < 1:
            raise ValidationFailure(f"frame rate must be >= 1 Hz, got {rate_hz}")
        starts = np.array(starts, dtype=np.int64)
        if starts.ndim != 1 or len(starts) < 1:
            raise ValidationFailure("frame stream must hold at least one frame")
        if not isinstance(packed, bytes):
            raise ValidationFailure(f"packed frames must be bytes, got {type(packed).__name__}")
        # each header sits just before its payload and its length ends where the next begins
        heads = starts - FRAME_HEADER.size
        ends = np.append(heads[1:], len(packed))
        misfit = f"camera {camera_id}: payload starts do not match the packed frame headers"
        if heads[0] != 0 or (ends < starts).any():
            raise ValidationFailure(misfit)
        fields = np.frombuffer(packed, np.uint8)[heads[:, None] + np.arange(FRAME_HEADER.size)]
        seqs, lengths = fields.view("<u8").T
        if (lengths != ends - starts).any():
            raise ValidationFailure(misfit)
        wrong = np.flatnonzero(seqs != np.arange(len(starts)))
        if len(wrong):
            raise ValidationFailure(
                f"camera {camera_id}: frame seqs must be 0..F-1 in order, "
                f"got seq {seqs[wrong[0]]} at position {wrong[0]}"
            )
        starts.setflags(write=False)
        object.__setattr__(self, "camera_id", camera_id)
        object.__setattr__(self, "rate_hz", rate_hz)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "starts", starts)

    @property
    def frame_count(self) -> int:
        return len(self.starts)

    @property
    def records(self) -> tuple[FrameRecord, ...]:
        """One FrameRecord per frame, built from `packed` on each call."""
        ends = [*(self.starts[1:] - FRAME_HEADER.size).tolist(), len(self.packed)]
        return tuple(
            FrameRecord(seq=k, payload=self.packed[start:end])
            for k, (start, end) in enumerate(zip(self.starts.tolist(), ends))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameStream):
            return NotImplemented
        # the packed bytes hold every seq and payload, so they decide equality of the records
        return (self.camera_id, self.rate_hz, self.packed) == (
            other.camera_id, other.rate_hz, other.packed
        )

    def __hash__(self) -> int:
        return hash((self.camera_id, self.rate_hz, self.packed))


@dataclass(frozen=True, eq=False)
class Episode:
    """One bilateral demonstration: leader + follower streams plus cameras.

    Invariants enforced here:
      * leader and follower share rate, joint count, and sample count
      * every frame stream shares one rate and one frame count F
      * the robot rate is an integer multiple R of the frame rate
      * sample count T covers every frame anchor: T >= (F - 1) * R + 1
    """

    episode_id: str
    leader: RobotStream
    follower: RobotStream
    frame_streams: tuple[FrameStream, ...]
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.episode_id:
            raise ValidationFailure("episode_id must be non-empty")
        if self.leader.rate_hz != self.follower.rate_hz:
            raise ValidationFailure(
                f"leader rate {self.leader.rate_hz} != follower rate {self.follower.rate_hz}"
            )
        if self.leader.data.shape != self.follower.data.shape:
            raise ValidationFailure(
                f"leader shape {self.leader.data.shape} != follower shape "
                f"{self.follower.data.shape}"
            )
        object.__setattr__(self, "frame_streams", tuple(self.frame_streams))
        if len(self.frame_streams) < 1:
            raise ValidationFailure("episode needs at least one frame stream")
        ids = [fs.camera_id for fs in self.frame_streams]
        if len(set(ids)) != len(ids):
            raise ValidationFailure(f"duplicate camera ids: {ids}")
        rates = {fs.rate_hz for fs in self.frame_streams}
        if len(rates) != 1:
            raise ValidationFailure(f"frame streams disagree on rate: {sorted(rates)}")
        counts = {fs.frame_count for fs in self.frame_streams}
        if len(counts) != 1:
            raise ValidationFailure(f"frame streams disagree on frame count: {sorted(counts)}")
        ratio = exact_ratio(self.leader.rate_hz, self.frame_streams[0].rate_hz)
        t_min = (self.frame_count - 1) * ratio + 1
        if self.sample_count < t_min:
            raise ValidationFailure(
                f"sample count {self.sample_count} too short for {self.frame_count} frames "
                f"at ratio {ratio}; need at least {t_min}"
            )
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def ratio(self) -> int:
        return self.leader.rate_hz // self.frame_streams[0].rate_hz

    @property
    def sample_count(self) -> int:
        return self.leader.sample_count

    @property
    def frame_count(self) -> int:
        return self.frame_streams[0].frame_count

    @property
    def joints(self) -> int:
        return self.leader.joints

    @property
    def camera_ids(self) -> tuple[str, ...]:
        return tuple(fs.camera_id for fs in self.frame_streams)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Episode):
            return NotImplemented
        return (
            self.episode_id == other.episode_id
            and self.leader == other.leader
            and self.follower == other.follower
            and self.frame_streams == other.frame_streams
            and self.meta == other.meta
        )


@dataclass(frozen=True)
class Provenance:
    """Where one aligned sub-episode came from; its method is the dataset's (DatasetManifest)."""

    source_episode_id: str
    offset: int


@dataclass(frozen=True, eq=False)
class AlignedEpisode:
    """One aligned sub-episode: exactly one step per source frame.

    `rows` is a read-only 1-d array of `step_dtype(joints)`: row k pairs
    frame seq k of every camera with the follower observation and leader
    action of high-rate sample `source_index`, both flat float64 vectors of
    length 3 * joints, joint-major: (angle, velocity, torque) for joint 0,
    then joint 1, ...
    """

    rows: np.ndarray
    cameras: tuple[str, ...]
    provenance: Provenance

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows)
        # one dtype test covers index type, equal obs/act widths and width = 3*joints
        obs = (rows.dtype.fields or {}).get("observation")
        width = obs[0].shape if obs else ()
        joints = width[0] // CHANNELS_PER_JOINT if len(width) == 1 else 0
        if rows.ndim != 1 or joints < 1 or rows.dtype != step_dtype(joints):
            raise ValidationFailure(
                f"rows must be a 1-d array of step_dtype(joints), "
                f"got {rows.dtype} of shape {rows.shape}"
            )
        if rows.shape[0] < 1:
            raise ValidationFailure("aligned episode must hold at least one step")
        if not (np.isfinite(rows["observation"]).all() and np.isfinite(rows["action"]).all()):
            raise ValidationFailure("step vectors contain non-finite values")
        object.__setattr__(self, "cameras", tuple(self.cameras))
        if len(self.cameras) < 1:
            raise ValidationFailure("aligned episode needs at least one camera")
        # keep without a copy only a view of bytes (a loaded payload): the owner of
        # any other memory can make it writable again
        if not _views_immutable_bytes(rows):
            rows = rows.copy()
            rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def source_index(self) -> np.ndarray:
        return self.rows["source_index"]

    @property
    def observation(self) -> np.ndarray:
        return self.rows["observation"]

    @property
    def action(self) -> np.ndarray:
        return self.rows["action"]

    @property
    def step_count(self) -> int:
        return self.rows.shape[0]

    @property
    def joints(self) -> int:
        return self.rows.dtype["observation"].shape[0] // CHANNELS_PER_JOINT

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlignedEpisode):
            return NotImplemented
        return (
            self.provenance == other.provenance
            and self.cameras == other.cameras
            and self.rows.dtype == other.rows.dtype
            and np.array_equal(self.rows, other.rows)
        )


@dataclass(frozen=True)
class DatasetManifest:
    """Summary of how an augmented dataset was produced."""

    method: Method
    ratio: int
    source_episode_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "source_episode_ids", tuple(self.source_episode_ids)
        )
        if self.ratio < 1:
            raise ValidationFailure(f"ratio must be >= 1, got {self.ratio}")
        if len(self.source_episode_ids) < 1:
            raise ValidationFailure("dataset needs at least one source episode id")
        if len(set(self.source_episode_ids)) != len(self.source_episode_ids):
            raise ValidationFailure("source episode ids must be unique")


@dataclass(frozen=True, eq=False)
class AugmentedDataset:
    """All aligned sub-episodes produced from one batch of source episodes.

    Cardinality is fixed by the manifest: one sub-episode per source and
    offset of the method's window (make_offsets), so downsample keeps one per
    source, forward and dabi keep `ratio`.  Sub-episodes are ordered
    source-major, then by ascending offset, and all have one joint count.

    `by_source` maps each manifest source id, in manifest order, to its
    sub-episodes in stored order (an empty tuple when it has none).
    """

    episodes: tuple[AlignedEpisode, ...]
    manifest: DatasetManifest

    def __post_init__(self) -> None:
        object.__setattr__(self, "episodes", tuple(self.episodes))
        per_source = len(make_offsets(self.manifest.method, self.manifest.ratio))
        expected = per_source * len(self.manifest.source_episode_ids)
        if len(self.episodes) != expected:
            raise ValidationFailure(
                f"dataset holds {len(self.episodes)} sub-episodes, expected {expected} "
                f"({per_source} per source x {len(self.manifest.source_episode_ids)} sources)"
            )
        groups: dict[str, list[AlignedEpisode]] = {s: [] for s in self.manifest.source_episode_ids}
        for ep in self.episodes:
            src = ep.provenance.source_episode_id
            if src not in groups:
                raise ValidationFailure(f"sub-episode source {src!r} not in manifest")
            if ep.joints != self.episodes[0].joints:
                raise ValidationFailure(
                    f"source {src} offset {ep.provenance.offset}: {ep.joints} joints, "
                    f"but the first sub-episode has {self.episodes[0].joints}"
                )
            groups[src].append(ep)
        object.__setattr__(self, "_by_source", {src: tuple(subs) for src, subs in groups.items()})

    @property
    def by_source(self) -> Mapping[str, tuple[AlignedEpisode, ...]]:
        return MappingProxyType(self._by_source)

    @property
    def episode_count(self) -> int:
        return len(self.episodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AugmentedDataset):
            return NotImplemented
        return self.manifest == other.manifest and self.episodes == other.episodes
