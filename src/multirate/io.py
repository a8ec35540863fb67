"""On-disk persistence for episodes and augmented datasets.

Byte layout is specified in docs/format.md.  Every artifact is a directory
holding one manifest.json plus raw binary payload files; manifests carry a
crc32 per payload file.  Writers are deterministic (no timestamps, no
absolute paths, sorted JSON keys) so identical inputs produce identical
bytes, and they publish atomically: payloads land in a sibling temp
directory that is renamed into place under an exclusive lock file.
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import (
    ChecksumMismatch,
    IoFailure,
    ParseFailure,
    ValidationFailure,
)
from .model import (
    AlignedEpisode,
    AugmentedDataset,
    CHANNELS_PER_JOINT,
    FRAME_HEADER,
    DatasetManifest,
    Episode,
    FrameStream,
    Method,
    Provenance,
    RobotStream,
    is_plain_name,
    step_dtype,
)

FORMAT_VERSION = 1

_LEADER_FILE = "leader.f64"
_FOLLOWER_FILE = "follower.f64"


def _json_bytes(obj: object) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _crc(data: bytes | memoryview) -> str:
    return f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"


@contextmanager
def _publish_lock(target: Path) -> Iterator[None]:
    lock = target.parent / (target.name + ".lock")
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise IoFailure(f"{target} is locked by another writer ({lock} exists)") from None
    except OSError as exc:
        raise IoFailure(f"cannot create lock for {target}: {exc}") from exc
    try:
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(lock)
        except OSError:
            pass


def is_staging_name(name: str) -> bool:
    """True for the `<name>.tmp` and `<name>.old.tmp` directories _publish_dir works in.

    A killed writer can leave either behind; directory scans skip them, so
    they are never taken for artifacts.
    """
    return name.endswith(".tmp")


def _publish_dir(
    target: Path, files: Iterable[tuple[str, bytes | memoryview]], overwrite: bool
) -> Path:
    """Write `files` into `target` atomically: temp dir, old directory set aside, rename.

    Files are written in the order `files` gives them, so it may produce each
    payload as it goes; if it raises, the temp dir is removed and `target` is
    left as it was.
    """
    target = Path(target)
    if target.exists() and not overwrite:
        raise IoFailure(f"{target} already exists (pass overwrite to replace it)")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create parent of {target}: {exc}") from exc
    with _publish_lock(target):
        tmp = target.parent / (target.name + ".tmp")
        aside = target.parent / (target.name + ".old.tmp")
        try:
            for stale in (tmp, aside):
                if stale.exists():
                    shutil.rmtree(stale)
            tmp.mkdir()
            for name, data in files:
                (tmp / name).write_bytes(data)
            if target.is_dir() and not target.is_symlink():
                os.replace(target, aside)
            try:
                os.replace(tmp, target)
            except BaseException:
                if aside.exists():
                    os.replace(aside, target)
                raise
            shutil.rmtree(aside, ignore_errors=True)
        except BaseException as exc:
            shutil.rmtree(tmp, ignore_errors=True)
            if isinstance(exc, OSError):
                raise IoFailure(f"failed to publish {target}: {exc}") from exc
            raise
    return target


def _as_directory(path: str | Path) -> Path:
    """Accept either an artifact directory or its manifest.json path."""
    path = Path(path)
    return path.parent if path.name == "manifest.json" else path


def load_manifest(directory: str | Path) -> dict:
    """Parse a manifest.json, checking format version but not payloads."""
    directory = _as_directory(directory)
    path = directory / "manifest.json"
    if not directory.is_dir():
        raise IoFailure(f"{directory} is not a directory")
    if not path.is_file():
        raise IoFailure(f"{directory} has no manifest.json")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseFailure(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseFailure(f"{path} must hold a JSON object")
    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseFailure(
            f"{path}: unsupported format_version {version!r} (this build reads {FORMAT_VERSION})"
        )
    if raw.get("kind") not in ("episode", "dataset"):
        raise ParseFailure(f"{path}: unknown kind {raw.get('kind')!r}")
    return raw


def verify_checksums(directory: str | Path, manifest: dict) -> dict[str, bytes]:
    """Check every payload file the manifest declares; raise on any defect.

    Returns the verified bytes by file name, so that callers parse exactly
    the bytes whose checksums matched.
    """
    directory = Path(directory)
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise ParseFailure(f"{directory}/manifest.json: missing files table")
    payloads = {}
    for name in sorted(files):
        if not is_plain_name(name):
            raise ParseFailure(f"{directory}/manifest.json: file name {name!r} is not plain")
        stamp = files[name]
        if not isinstance(stamp, dict):
            raise ParseFailure(f"{directory}/manifest.json: files entry {name!r} is not an object")
        path = directory / name
        if not path.is_file():
            raise ValidationFailure(f"{directory}: declared file {name} is missing")
        data = path.read_bytes()
        if len(data) != stamp.get("bytes"):
            raise ChecksumMismatch(
                f"{path}: size {len(data)} != declared {stamp.get('bytes')}"
            )
        crc = _crc(data)
        if crc != stamp.get("crc32"):
            raise ChecksumMismatch(f"{path}: crc32 {crc} != declared {stamp.get('crc32')}")
        payloads[name] = data
    return payloads


def _payload(payloads: dict[str, bytes], directory: Path, name: str) -> tuple[bytes, Path]:
    """The verified bytes of `name` and its path; undeclared names never reach the disk."""
    if name not in payloads:
        raise ParseFailure(f"{directory}/manifest.json: {name} is not declared in files")
    return payloads[name], directory / name


def _write_artifact(
    kind: str,
    fields: dict,
    payloads: Iterable[tuple[str, np.ndarray | bytes]],
    out_dir: str | Path,
    overwrite: bool,
) -> Path:
    """Publish payloads as they come, then the manifest that declares them.

    Each payload is written and checksummed as the buffer it is, never
    copied.  `fields` is read after the last payload, so the producer of
    `payloads` may fill it in as it goes.  Returns the manifest path.
    """
    stamps = {}

    def files() -> Iterator[tuple[str, bytes | memoryview]]:
        for name, data in payloads:
            view = memoryview(data)
            stamps[name] = {"bytes": view.nbytes, "crc32": _crc(view)}
            yield name, view
        manifest = {"format_version": FORMAT_VERSION, "kind": kind, **fields, "files": stamps}
        yield "manifest.json", _json_bytes(manifest)

    return _publish_dir(Path(out_dir), files(), overwrite) / "manifest.json"


def _open_artifact(
    path: str | Path, kind: str, manifest: dict | None, payloads: dict[str, bytes] | None
) -> tuple[Path, dict, dict[str, bytes]]:
    """The directory, manifest and verified payloads of one artifact of `kind`.

    A manifest or payloads the caller already holds are used as given.
    """
    directory = _as_directory(path)
    raw = load_manifest(directory) if manifest is None else manifest
    if raw["kind"] != kind:
        raise ParseFailure(f"{directory}: expected kind {kind!r}, found {raw['kind']!r}")
    if payloads is None:
        payloads = verify_checksums(directory, raw)
    return directory, raw, payloads


def _robot_payload(stream: RobotStream) -> np.ndarray:
    flat = stream.data.reshape(stream.sample_count, stream.joints * CHANNELS_PER_JOINT)
    return np.ascontiguousarray(flat, dtype="<f8")


def write_episode(episode: Episode, out_dir: str | Path, overwrite: bool = False) -> Path:
    """Persist one episode; returns the path of the manifest written."""
    payloads = [
        (_LEADER_FILE, _robot_payload(episode.leader)),
        (_FOLLOWER_FILE, _robot_payload(episode.follower)),
        *((f"frames_{fs.camera_id}.bin", fs.packed) for fs in episode.frame_streams),
    ]
    fields = {
        "episode_id": episode.episode_id,
        "robot_rate_hz": episode.leader.rate_hz,
        "frame_rate_hz": episode.frame_streams[0].rate_hz,
        "joints": episode.joints,
        "sample_count": episode.sample_count,
        "frame_count": episode.frame_count,
        "cameras": list(episode.camera_ids),
        "meta": dict(episode.meta),
    }
    return _write_artifact("episode", fields, payloads, out_dir, overwrite)


def _parse_robot(
    payloads: dict[str, bytes], directory: Path, name: str, sample_count: int, joints: int,
    rate_hz: int,
) -> RobotStream:
    data, path = _payload(payloads, directory, name)
    width = joints * CHANNELS_PER_JOINT
    expected = sample_count * width * 8
    if len(data) != expected:
        # Size disagreements between manifest counts and payload length are a
        # content violation, not a syntax problem.
        raise ValidationFailure(
            f"{path}: {len(data)} bytes, manifest implies {expected} "
            f"({sample_count} samples x {width} channels)"
        )
    arr = np.frombuffer(data, dtype="<f8").reshape(sample_count, joints, CHANNELS_PER_JOINT)
    return RobotStream(rate_hz=rate_hz, data=arr)


def _parse_frames(
    payloads: dict[str, bytes], directory: Path, camera_id: str, rate_hz: int, frame_count: int
) -> FrameStream:
    data, path = _payload(payloads, directory, f"frames_{camera_id}.bin")
    # a record's place depends on every length before it, so the headers are walked
    starts = []
    pos, end = 0, len(data)
    while pos < end:
        if pos + FRAME_HEADER.size > end:
            raise ParseFailure(f"{path}: truncated record header at byte {pos}")
        seq, length = FRAME_HEADER.unpack_from(data, pos)
        pos += FRAME_HEADER.size
        if pos + length > end:
            raise ParseFailure(f"{path}: record {seq} payload runs past end of file")
        starts.append(pos)
        pos += length
    if len(starts) != frame_count:
        raise ValidationFailure(
            f"{path}: holds {len(starts)} frames, manifest declares {frame_count}"
        )
    return FrameStream.from_packed(camera_id, rate_hz, data, starts)


def read_episode(
    in_dir: str | Path,
    *,
    manifest: dict | None = None,
    payloads: dict[str, bytes] | None = None,
) -> Episode:
    """Load one episode directory, verifying checksums and invariants.

    Accepts either the directory or its manifest.json path.  A caller that
    already holds the parsed manifest, and the payloads verify_checksums
    returned for it, passes them in; nothing is then read or hashed again.
    """
    in_dir, raw, payloads = _open_artifact(in_dir, "episode", manifest, payloads)
    try:
        episode_id = str(raw["episode_id"])
        robot_rate_hz = int(raw["robot_rate_hz"])
        frame_rate_hz = int(raw["frame_rate_hz"])
        joints = int(raw["joints"])
        sample_count = int(raw["sample_count"])
        frame_count = int(raw["frame_count"])
        cameras = tuple(raw["cameras"])
        meta = {str(k): str(v) for k, v in raw.get("meta", {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad episode manifest: {exc!r}") from exc
    leader, follower = (
        _parse_robot(payloads, in_dir, name, sample_count, joints, robot_rate_hz)
        for name in (_LEADER_FILE, _FOLLOWER_FILE)
    )
    streams = tuple(
        _parse_frames(payloads, in_dir, cam, frame_rate_hz, frame_count) for cam in cameras
    )
    return Episode(
        episode_id=episode_id,
        leader=leader,
        follower=follower,
        frame_streams=streams,
        meta=meta,
    )


def _parse_steps(
    payloads: dict[str, bytes], directory: Path, name: str, step_count: int, joints: int
) -> np.ndarray:
    data, path = _payload(payloads, directory, name)
    dtype = step_dtype(joints)
    if len(data) != step_count * dtype.itemsize:
        raise ValidationFailure(
            f"{path}: {len(data)} bytes, manifest implies {step_count * dtype.itemsize} "
            f"({step_count} steps of {dtype.itemsize} bytes)"
        )
    return np.frombuffer(data, dtype=dtype)


def write_dataset(dataset: AugmentedDataset, out_dir: str | Path, overwrite: bool = False) -> Path:
    """Persist an augmented dataset; returns the path of the manifest written.

    `dataset.episodes` is iterated once and each sub-episode's rows are
    written as they come, so `episodes` may be an iterator that gathers each
    AlignedEpisode just before it is written (the command line's augment
    passes one that holds one source's sub-episodes at a time).
    """
    entries = []

    def payloads() -> Iterator[tuple[str, np.ndarray]]:
        for i, sub in enumerate(dataset.episodes):
            name = f"steps-{i:05d}.bin"
            entries.append(
                {
                    "file": name,
                    "source_episode_id": sub.provenance.source_episode_id,
                    "offset": sub.provenance.offset,
                    "step_count": sub.step_count,
                    "joints": sub.joints,
                    "cameras": list(sub.cameras),
                }
            )
            # a read-only strided view of payload bytes is kept by AlignedEpisode as it is
            yield name, np.ascontiguousarray(sub.rows)

    fields = {
        "method": dataset.manifest.method.value,
        "ratio": dataset.manifest.ratio,
        "source_episode_ids": list(dataset.manifest.source_episode_ids),
        "episodes": entries,
    }
    return _write_artifact("dataset", fields, payloads(), out_dir, overwrite)


def read_dataset(
    in_dir: str | Path,
    *,
    manifest: dict | None = None,
    payloads: dict[str, bytes] | None = None,
) -> AugmentedDataset:
    """Load a dataset directory, verifying checksums, counts, and invariants.

    Accepts either the directory or its manifest.json path.  manifest and
    payloads work as in read_episode.
    """
    in_dir, raw, payloads = _open_artifact(in_dir, "dataset", manifest, payloads)
    try:
        method = Method.from_name(str(raw["method"]))
        ratio = int(raw["ratio"])
        source_ids = tuple(str(s) for s in raw["source_episode_ids"])
        entries = list(raw["episodes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"{in_dir}/manifest.json: {exc!r}") from exc
    subs = []
    for entry in entries:
        try:
            # only declared names, all plain, are read: path-like names fail here
            rows = _parse_steps(
                payloads,
                in_dir,
                str(entry["file"]),
                int(entry["step_count"]),
                int(entry["joints"]),
            )
            cameras = tuple(str(c) for c in entry["cameras"])
            prov = Provenance(
                source_episode_id=str(entry["source_episode_id"]), offset=int(entry["offset"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseFailure(f"{in_dir}/manifest.json: bad episode entry: {exc!r}") from exc
        subs.append(AlignedEpisode(rows=rows, cameras=cameras, provenance=prov))
    return AugmentedDataset(
        episodes=tuple(subs),
        manifest=DatasetManifest(method=method, ratio=ratio, source_episode_ids=source_ids),
    )
