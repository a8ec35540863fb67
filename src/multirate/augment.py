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

from collections.abc import Iterator, Sequence
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


def iter_steps(episode: Episode, offsets: Sequence[int]) -> Iterator[np.ndarray]:
    """The steps of each offset's sub-episode, one offset at a time.

    Yields, for each of `offsets` in order, a (frame_count,) array of
    step_dtype(joints) of its own, laid out as in slice_episode.  A caller
    that drops each array before taking the next holds one sub-episode's
    steps, never all of the source's.
    """
    _, clipped = source_indices(
        offsets, episode.ratio, episode.frame_count, episode.sample_count
    )
    width = episode.joints * CHANNELS_PER_JOINT
    follower = episode.follower.data.reshape(-1, width)
    leader = episode.leader.data.reshape(-1, width)
    for indices in clipped:
        rows = np.empty(indices.shape, dtype=step_dtype(episode.joints))
        rows["source_index"] = indices
        # np.take fills the fields in place: cheaper than assigning a fancy-indexed copy
        np.take(follower, indices, axis=0, out=rows["observation"])
        np.take(leader, indices, axis=0, out=rows["action"])
        yield rows


def slice_episode(episode: Episode, offset: int) -> AlignedEpisode:
    """Extract one aligned sub-episode at a fixed per-frame offset.

    Frame k pairs with high-rate sample clip(k * R + offset, 0, T - 1); the
    follower sample becomes the observation, the leader sample the action,
    both flattened joint-major to length 3 * joints.  The result always has
    exactly frame_count steps regardless of clamping.
    """
    return AlignedEpisode(
        rows=next(iter_steps(episode, (offset,))),
        cameras=episode.camera_ids,
        provenance=Provenance(source_episode_id=episode.episode_id, offset=offset),
    )


def check_batch(episodes: Sequence[Episode], method: Method) -> DatasetManifest:
    """The manifest of augmenting `episodes` with `method`, after the batch checks.

    Raises EmptyInput for an empty batch, MixedRatio for mixed rate ratios,
    and ValidationFailure for duplicate ids or mixed joint counts; the last
    is worded as AugmentedDataset words it.  Nothing is gathered.
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
    for ep in episodes:
        if ep.joints != episodes[0].joints:
            raise ValidationFailure(
                f"source {ep.episode_id} offset {make_offsets(method, ratio)[0]}: "
                f"{ep.joints} joints, but the first sub-episode has {episodes[0].joints}"
            )
    return DatasetManifest(method=method, ratio=ratio, source_episode_ids=tuple(ids))


def augment(episodes: Sequence[Episode], method: Method) -> AugmentedDataset:
    """Expand a batch of episodes into aligned sub-episodes.

    The batch must pass check_batch.  Output order is source-major, offsets
    ascending within each source.
    """
    episodes = list(episodes)
    manifest = check_batch(episodes, method)
    offsets = make_offsets(method, manifest.ratio)
    return AugmentedDataset(
        episodes=tuple(
            AlignedEpisode(
                rows=rows,
                cameras=ep.camera_ids,
                provenance=Provenance(source_episode_id=ep.episode_id, offset=offset),
            )
            for ep in episodes
            for offset, rows in zip(offsets, iter_steps(ep, offsets))
        ),
        manifest=manifest,
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
