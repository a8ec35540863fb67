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
    raw = _raw_indices(offsets, ratio, frame_count)
    return raw, np.clip(raw, 0, sample_count - 1)


def _raw_indices(offsets: Sequence[int], ratio: int, frame_count: int) -> np.ndarray:
    """source_indices' `raw`, for arguments it accepts."""
    offs = np.asarray(offsets, dtype=np.int64).reshape(-1, 1)
    return np.arange(frame_count, dtype=np.int64) * ratio + offs


def gather_steps(
    episode: Episode, clipped: np.ndarray, out: np.ndarray | None = None
) -> Iterator[np.ndarray]:
    """The steps at each row of `clipped`'s sample indices, one row at a time.

    Yields, for each row in order, its steps laid out as in slice_episode: in
    an array of step_dtype(joints) of its own, or in `out`, an array of that
    dtype and the row's length, which each row then overwrites.
    """
    width = episode.joints * CHANNELS_PER_JOINT
    follower = episode.follower.data.reshape(-1, width)
    leader = episode.leader.data.reshape(-1, width)
    for indices in clipped:
        rows = np.empty(indices.shape, dtype=step_dtype(episode.joints)) if out is None else out
        rows["source_index"] = indices
        # take fills the fields in place: cheaper than assigning a fancy-indexed copy
        follower.take(indices, axis=0, out=rows["observation"])
        leader.take(indices, axis=0, out=rows["action"])
        yield rows


def _sub_episodes(episode: Episode, offsets: Sequence[int]) -> list[AlignedEpisode]:
    """The aligned sub-episode of `episode` at each of `offsets`, in order, as slice_episode's."""
    _, clipped = source_indices(
        offsets, episode.ratio, episode.frame_count, episode.sample_count
    )
    return [
        AlignedEpisode(
            rows=rows,
            cameras=episode.camera_ids,
            provenance=Provenance(source_episode_id=episode.episode_id, offset=offset),
        )
        for offset, rows in zip(offsets, gather_steps(episode, clipped))
    ]


def slice_episode(episode: Episode, offset: int) -> AlignedEpisode:
    """Extract one aligned sub-episode at a fixed per-frame offset.

    Frame k pairs with high-rate sample clip(k * R + offset, 0, T - 1); the
    follower sample becomes the observation, the leader sample the action,
    both flattened joint-major to length 3 * joints.  The result always has
    exactly frame_count steps regardless of clamping.
    """
    return _sub_episodes(episode, (offset,))[0]


def check_batch(episodes: Sequence[Episode], method: Method) -> DatasetManifest:
    """The manifest of augmenting `episodes` with `method`, after the batch checks.

    Raises EmptyInput for an empty batch, MixedRatio for mixed rate ratios,
    and ValidationFailure for duplicate ids.  Nothing is gathered: only each
    episode's episode_id and ratio are read, so stand-ins that carry those two
    do for episodes already dropped.  Mixed joint counts are refused by
    source_groups, which AugmentedDataset and write_dataset run on the
    sub-episodes.
    """
    episodes = list(episodes)
    if not episodes:
        raise EmptyInput("augment() needs at least one episode")
    ratios = sorted({ep.ratio for ep in episodes})
    if len(ratios) != 1:
        raise MixedRatio(f"episodes mix rate ratios {ratios}")
    ids = [ep.episode_id for ep in episodes]
    if len(set(ids)) != len(ids):
        raise ValidationFailure(f"duplicate episode ids in batch: {ids}")
    return DatasetManifest(method=method, ratio=ratios[0], source_episode_ids=tuple(ids))


def augment(episodes: Sequence[Episode], method: Method) -> AugmentedDataset:
    """Expand a batch of episodes into aligned sub-episodes.

    The batch must pass check_batch, and its sub-episodes source_groups.
    Output order is source-major, offsets ascending within each source.
    """
    episodes = list(episodes)
    manifest = check_batch(episodes, method)
    offsets = make_offsets(method, manifest.ratio)
    return AugmentedDataset(
        episodes=tuple(sub for ep in episodes for sub in _sub_episodes(ep, offsets)),
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
    from the episode: id absent from the manifest, or as stored_indices.
    """
    if episode.episode_id not in dataset.manifest.source_episode_ids:
        raise ProvenanceMismatch(
            f"episode {episode.episode_id!r} is not a source of this dataset"
        )
    subs = dataset.by_source[episode.episode_id]
    return CoverageReport(
        counts=np.bincount(
            stored_indices(dataset.manifest, subs, episode).ravel(),
            minlength=episode.sample_count,
        ),
        clamped_steps=count_clamped(subs, episode.ratio),
    )


def stored_indices(
    manifest: DatasetManifest, subs: Sequence[AlignedEpisode], episode: Episode
) -> np.ndarray:
    """The source indices one source's sub-episodes `subs` store, once they fit `episode`.

    Returns an int64 (len(subs), frame_count) array, in stored order.  Raises
    ProvenanceMismatch on a ratio disagreement, a step count other than the
    episode's frame count, or an index outside the episode.
    """
    ratio = episode.ratio
    if manifest.ratio != ratio:
        raise ProvenanceMismatch(f"dataset ratio {manifest.ratio} != episode ratio {ratio}")
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
    # every word is below the sample count, so its bits read the same as an int64
    return stored.view(np.int64)


def count_clamped(subs: Sequence[AlignedEpisode], ratio: int) -> int:
    """Steps whose stored source index is not the raw index k * R + offset: the clamped ones."""
    # raw indices of the longest sub-episode, cut to each one's steps: no source length is needed
    lengths = [sub.step_count for sub in subs]
    raw = _raw_indices([sub.provenance.offset for sub in subs], ratio, max(lengths))
    if min(lengths) < raw.shape[1]:
        raw = raw[np.arange(raw.shape[1]) < np.array(lengths)[:, None]]
    raw = raw.ravel()
    stored = np.concatenate([sub.source_index for sub in subs])
    # compared as u64 words, raw viewed as one: a negative raw index is clamped whatever
    # word is stored for it, its wrapped word 2^64 + raw too
    clamped = raw < 0
    clamped |= stored != raw.view(np.uint64)
    return int(np.count_nonzero(clamped))
