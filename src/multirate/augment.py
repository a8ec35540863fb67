"""Offset-window augmentation of multirate episodes.

With robot samples R times denser than camera frames, each frame has R - 1
samples strictly between itself and the next frame.  Pairing a frame with a
nearby sample instead of its own anchor yields a new, equally valid aligned
episode.  Each method's window of offsets is `make_offsets` (downsample,
forward, dabi).

Every offset in the window produces one sub-episode, so forward and dabi
expand a batch R-fold while downsample keeps it at size.  Indices that fall
outside the recording are clamped to its ends, never dropped.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, MixedRatio, ProvenanceMismatch, ValidationFailure
from .model import (
    CHANNELS_PER_JOINT,
    AlignedEpisode,
    AugmentedDataset,
    DatasetManifest,
    Episode,
    Method,
    Provenance,
    make_offsets,
    step_dtype,
)


def source_indices(
    offsets: Sequence[int], ratio: int, frame_count: int, sample_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """High-rate sample index of every (offset, frame) pair.

    Returns int64 arrays `raw` and `clipped` of shape (len(offsets),
    frame_count): raw[i, k] = k * ratio + offsets[i] is the sample at offset
    i from frame k's anchor, and clipped pins it into [0, sample_count - 1].
    """
    if ratio < 1 or frame_count < 0 or sample_count < 1:
        raise ValidationFailure(
            f"bad index args ratio={ratio} frame_count={frame_count} "
            f"sample_count={sample_count}"
        )
    offs = np.asarray(offsets, dtype=np.int64).reshape(-1, 1)
    raw = np.arange(frame_count, dtype=np.int64) * ratio + offs
    return raw, np.clip(raw, 0, sample_count - 1)


def gather_steps(episode: Episode, offsets: Sequence[int]) -> np.ndarray:
    """The steps of every offset's sub-episode, in one gather over the source.

    Returns a (len(offsets), frame_count) array of step_dtype(joints): row i
    holds the steps of the sub-episode at offsets[i], laid out as in
    slice_episode.
    """
    _, clipped = source_indices(
        offsets, episode.ratio, episode.frame_count, episode.sample_count
    )
    width = episode.joints * CHANNELS_PER_JOINT
    rows = np.empty(clipped.shape, dtype=step_dtype(episode.joints))
    rows["source_index"] = clipped
    # np.take fills the fields in place: cheaper than assigning a fancy-indexed copy
    np.take(episode.follower.data.reshape(-1, width), clipped, axis=0, out=rows["observation"])
    np.take(episode.leader.data.reshape(-1, width), clipped, axis=0, out=rows["action"])
    return rows


def _sub_episodes(episode: Episode, offsets: Sequence[int]) -> list[AlignedEpisode]:
    return [
        AlignedEpisode(
            rows=rows,
            cameras=episode.camera_ids,
            provenance=Provenance(source_episode_id=episode.episode_id, offset=offset),
        )
        for offset, rows in zip(offsets, gather_steps(episode, offsets))
    ]


def slice_episode(episode: Episode, offset: int) -> AlignedEpisode:
    """Extract one aligned sub-episode at a fixed per-frame offset.

    Frame k pairs with high-rate sample clip(k * R + offset, 0, T - 1); the
    follower sample becomes the observation, the leader sample the action,
    both flattened joint-major to length 3 * joints.  The result always has
    exactly frame_count steps regardless of clamping.
    """
    return _sub_episodes(episode, (offset,))[0]


def augment(episodes: Sequence[Episode], method: Method) -> AugmentedDataset:
    """Expand a batch of episodes into aligned sub-episodes.

    All inputs must share one rate ratio (MixedRatio otherwise) and the
    batch must be non-empty (EmptyInput).  Output order is source-major,
    offsets ascending within each source.
    """
    episodes = list(episodes)
    if not episodes:
        raise EmptyInput("augment() needs at least one episode")
    ratios = sorted({ep.ratio for ep in episodes})
    if len(ratios) != 1:
        raise MixedRatio(f"episodes mix rate ratios {ratios}")
    ratio = ratios[0]
    ids = [ep.episode_id for ep in episodes]
    if len(set(ids)) != len(ids):
        raise ValidationFailure(f"duplicate episode ids in batch: {ids}")
    offsets = make_offsets(method, ratio)
    subs = [sub for ep in episodes for sub in _sub_episodes(ep, offsets)]
    return AugmentedDataset(
        episodes=tuple(subs),
        manifest=DatasetManifest(
            method=method, ratio=ratio, source_episode_ids=tuple(ids)
        ),
    )


@dataclass(frozen=True, eq=False)
class CoverageReport:
    """How often each high-rate index of one source episode was used.

    counts[i] is the number of (sub-episode, step) pairs whose source_index
    is i.  clamped_steps counts steps whose raw index k * R + offset fell
    outside the recording and was clamped to an end.
    """

    counts: np.ndarray
    clamped_steps: int

    def __post_init__(self) -> None:
        arr = np.array(self.counts, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "counts", arr)

    @property
    def referenced_once(self) -> int:
        return int(np.count_nonzero(self.counts == 1))

    @property
    def unreferenced(self) -> int:
        return int(np.count_nonzero(self.counts == 0))


def evenness_report(dataset: AugmentedDataset, episode: Episode) -> CoverageReport:
    """Tally which high-rate samples of `episode` the dataset references.

    Raises ProvenanceMismatch when the dataset does not actually derive
    from the episode: id absent from the manifest, ratio disagreement, or
    sub-episode offsets/step counts inconsistent with the declared method.
    """
    if episode.episode_id not in dataset.manifest.source_episode_ids:
        raise ProvenanceMismatch(
            f"episode {episode.episode_id!r} is not a source of this dataset"
        )
    ratio = episode.ratio
    if dataset.manifest.ratio != ratio:
        raise ProvenanceMismatch(
            f"dataset ratio {dataset.manifest.ratio} != episode ratio {ratio}"
        )
    subs = dataset.by_source[episode.episode_id]
    expected = make_offsets(dataset.manifest.method, ratio)
    got = tuple(ep.provenance.offset for ep in subs)
    if tuple(sorted(got)) != expected:
        raise ProvenanceMismatch(
            f"sub-episode offsets {sorted(got)} do not match method "
            f"{dataset.manifest.method.value} at ratio {ratio} (expected {list(expected)})"
        )
    t_len = episode.sample_count
    for sub in subs:
        if sub.step_count != episode.frame_count:
            raise ProvenanceMismatch(
                f"sub-episode at offset {sub.provenance.offset} has "
                f"{sub.step_count} steps, episode has {episode.frame_count} frames"
            )
    stored = np.stack([sub.source_index for sub in subs])
    outside = stored >= t_len
    if outside.any():
        raise ProvenanceMismatch(
            f"source_index {stored[outside][0]} outside episode of length {t_len}"
        )
    stored = stored.astype(np.int64)
    raw, _ = source_indices(got, ratio, episode.frame_count, t_len)
    return CoverageReport(
        counts=np.bincount(stored.ravel(), minlength=t_len),
        clamped_steps=int(np.count_nonzero(stored != raw)),
    )
