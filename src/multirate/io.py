"""On-disk persistence for episodes and augmented datasets.

Byte layout is specified in docs/format.md.  Every artifact is a directory
holding one manifest.json plus raw binary payload files; manifests carry a
crc32 per payload file.  Writers are deterministic (no timestamps, no
absolute paths, sorted JSON keys) so identical inputs produce identical
bytes, and they publish atomically: payloads land in a sibling temp
directory that is renamed into place under an exclusive lock file.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import stat
import zlib
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import (
    ChecksumMismatch,
    IoFailure,
    MultirateError,
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
    source_groups,
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


def staging_dirs(target: Path) -> tuple[Path, Path]:
    """The `<name>.tmp` and `<name>.old.tmp` directories _publish_dir works in for `target`.

    A write to `target` deletes whatever a killed writer left at either.
    """
    return target.parent / (target.name + ".tmp"), target.parent / (target.name + ".old.tmp")


def is_staging_name(name: str) -> bool:
    """True for the names of the directories staging_dirs gives.

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
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create parent of {target}: {exc}") from exc
    with _publish_lock(target):
        # checked under the lock, so a target another writer published first is never replaced
        if target.exists() and not overwrite:
            raise IoFailure(f"{target} already exists (pass overwrite to replace it)")
        tmp, aside = staging_dirs(target)
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


# open() errors that mean no regular file is there: nothing, a broken or looping
# link, a file where a directory was expected, a socket or a driverless device
_NOT_A_FILE = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENXIO, errno.ENODEV})


def _read_payload(directory: Path, name: str) -> bytes:
    """The bytes of payload `name` in `directory`: one open, one fstat, then reads to EOF.

    Anything but a regular file is missing; the open does not block, so a
    FIFO in a payload's place is refused, not waited on.
    """
    try:
        fd = os.open(os.path.join(directory, name), os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    except OSError as exc:
        if exc.errno not in _NOT_A_FILE:
            raise IoFailure(f"cannot read {directory / name}: {exc}") from exc
    else:
        try:
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode):
                # the stat size is a first guess: reading goes on to EOF
                chunks = []
                while chunk := os.read(fd, st.st_size + 1 if not chunks else 1 << 16):
                    chunks.append(chunk)
                return b"".join(chunks)
        except OSError as exc:
            raise IoFailure(f"cannot read {directory / name}: {exc}") from exc
        finally:
            os.close(fd)
    raise ValidationFailure(f"{directory}: declared file {name} is missing")


def _files_table(directory: Path, manifest: dict) -> dict:
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise ParseFailure(f"{directory}/manifest.json: missing files table")
    return files


def _verified(directory: Path, files: dict, name: str) -> bytes:
    """The bytes of declared payload `name`, once its name, stamp, size and crc32 pass."""
    if not is_plain_name(name):
        raise ParseFailure(f"{directory}/manifest.json: file name {name!r} is not plain")
    stamp = files[name]
    if not isinstance(stamp, dict):
        raise ParseFailure(f"{directory}/manifest.json: files entry {name!r} is not an object")
    data = _read_payload(directory, name)
    if len(data) != stamp.get("bytes"):
        raise ChecksumMismatch(
            f"{directory / name}: size {len(data)} != declared {stamp.get('bytes')}"
        )
    crc = _crc(data)
    if crc != stamp.get("crc32"):
        raise ChecksumMismatch(f"{directory / name}: crc32 {crc} != declared {stamp.get('crc32')}")
    return data


def verify_checksums(directory: str | Path, manifest: dict) -> dict[str, bytes]:
    """Check every payload file the manifest declares, by name; raise on the first defect.

    Returns the verified bytes by file name, so that callers parse exactly
    the bytes whose checksums matched.
    """
    directory = Path(directory)
    files = _files_table(directory, manifest)
    return {name: _verified(directory, files, name) for name in sorted(files)}


def _payload(payloads: dict[str, bytes], directory: Path, name: str) -> bytes:
    """The verified bytes of `name`; undeclared names never reach the disk."""
    if name not in payloads:
        raise ParseFailure(f"{directory}/manifest.json: {name} is not declared in files")
    return payloads[name]


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


def _open_manifest(path: str | Path, kind: str, manifest: dict | None) -> tuple[Path, dict]:
    """The directory and manifest of one artifact of `kind`; a manifest the caller holds is used."""
    directory = _as_directory(path)
    raw = load_manifest(directory) if manifest is None else manifest
    if raw["kind"] != kind:
        raise ParseFailure(f"{directory}: expected kind {kind!r}, found {raw['kind']!r}")
    return directory, raw


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
    data = _payload(payloads, directory, name)
    width = joints * CHANNELS_PER_JOINT
    expected = sample_count * width * 8
    if len(data) != expected:
        # Size disagreements between manifest counts and payload length are a
        # content violation, not a syntax problem.
        raise ValidationFailure(
            f"{directory / name}: {len(data)} bytes, manifest implies {expected} "
            f"({sample_count} samples x {width} channels)"
        )
    arr = np.frombuffer(data, dtype="<f8").reshape(sample_count, joints, CHANNELS_PER_JOINT)
    return RobotStream(rate_hz=rate_hz, data=arr)


def _parse_frames(
    payloads: dict[str, bytes], directory: Path, camera_id: str, rate_hz: int, frame_count: int
) -> FrameStream:
    name = f"frames_{camera_id}.bin"
    data = _payload(payloads, directory, name)
    if len(data) >= FRAME_HEADER.size:
        # when the first record's size tiles the file, every record may have that size;
        # from_packed checks each header against these starts
        record = FRAME_HEADER.size + FRAME_HEADER.unpack_from(data)[1]
        count, rest = divmod(len(data), record)
        if not rest and count == frame_count:
            starts = np.arange(FRAME_HEADER.size, len(data), record, dtype=np.int64)
            try:
                return FrameStream.from_packed(camera_id, rate_hz, data, starts)
            except ValidationFailure:
                pass  # records differ in size, or are bad: the walk finds which
    # a record's place depends on every length before it, so the headers are walked
    starts = []
    pos, end = 0, len(data)
    while pos < end:
        if pos + FRAME_HEADER.size > end:
            raise ParseFailure(f"{directory / name}: truncated record header at byte {pos}")
        seq, length = FRAME_HEADER.unpack_from(data, pos)
        pos += FRAME_HEADER.size
        if pos + length > end:
            raise ParseFailure(f"{directory / name}: record {seq} payload runs past end of file")
        starts.append(pos)
        pos += length
    if len(starts) != frame_count:
        raise ValidationFailure(
            f"{directory / name}: holds {len(starts)} frames, manifest declares {frame_count}"
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
    in_dir, raw = _open_manifest(in_dir, "episode", manifest)
    if payloads is None:
        payloads = verify_checksums(in_dir, raw)
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


def _parse_entry(
    directory: Path, files: dict, entry: object, payload: Callable[[str], bytes | None]
) -> AlignedEpisode | None:
    """The sub-episode of one `episodes` entry, over the bytes `payload` gives for its file.

    None when `payload` gives none: the file failed its checks, which is reported instead.
    """
    try:
        # only declared names, all plain, are read: path-like names fail here
        name = str(entry["file"])
        step_count, joints = int(entry["step_count"]), int(entry["joints"])
        if name not in files:
            raise ParseFailure(f"{directory}/manifest.json: {name} is not declared in files")
        data = payload(name)
        if data is None:
            return None
        dtype = step_dtype(joints)
        if len(data) != step_count * dtype.itemsize:
            raise ValidationFailure(
                f"{directory / name}: {len(data)} bytes, manifest implies "
                f"{step_count * dtype.itemsize} ({step_count} steps of {dtype.itemsize} bytes)"
            )
        rows = np.frombuffer(data, dtype=dtype)
        cameras = tuple(str(c) for c in entry["cameras"])
        prov = Provenance(
            source_episode_id=str(entry["source_episode_id"]), offset=int(entry["offset"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"{directory}/manifest.json: bad episode entry: {exc!r}") from exc
    return AlignedEpisode(rows=rows, cameras=cameras, provenance=prov)


def write_dataset(dataset: AugmentedDataset, out_dir: str | Path, overwrite: bool = False) -> Path:
    """Persist an augmented dataset; returns the path of the manifest written.

    `dataset.episodes` is iterated once and each sub-episode's rows are
    written as they come, so `episodes` may be an iterator that gathers each
    AlignedEpisode just before it is written (the command line's augment
    passes one that reads and augments one source at a time).
    `dataset.manifest` is read after the last sub-episode, so that iterator
    may settle it as it goes.  If it raises, nothing is published.
    """
    entries = []
    fields: dict = {"episodes": entries}

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
        manifest = dataset.manifest
        fields["method"] = manifest.method.value
        fields["ratio"] = manifest.ratio
        fields["source_episode_ids"] = list(manifest.source_episode_ids)

    return _write_artifact("dataset", fields, payloads(), out_dir, overwrite)


class DatasetReader:
    """A dataset directory read one source at a time.

    Iterating reads, checks (size, crc32) and parses each declared payload
    once.  It yields, for each source in `source_episode_ids` order, the
    source id and its sub-episodes in stored order, keyed by their place among
    the manifest's `episodes`.  The reader keeps no source once it is
    yielded, so a caller that drops each source before asking for the next
    holds one.

    Every declared file is checked whatever fails; the pass then raises the
    error that reading the whole dataset raises.  In order of precedence: the
    first failing declared file by name, the manifest's fields, the first
    failing entry in manifest order, then the dataset's own rules (entry
    count, unknown source, joint count).  Nothing more is yielded once the
    pass is sure to fail, so every source handed over is well formed.

    `manifest`, `entries` (each entry's source id, offset and joints) and
    `step_counts` (each entry's), in manifest order, are set before the first
    source is yielded, as the manifest declares them; a pass that ends without
    raising confirms them.  After a pass that raised, `bad_file` tells a
    declared file's defect from the manifest's.
    """

    def __init__(self, path: str | Path, *, manifest: dict | None = None) -> None:
        self.directory, self._raw = _open_manifest(path, "dataset", manifest)
        self.manifest: DatasetManifest | None = None
        self.entries: tuple[tuple[str, int, int], ...] = ()
        self.step_counts: tuple[int, ...] = ()
        self.bad_file = False

    def __iter__(self) -> Iterator[tuple[str, dict[int, AlignedEpisode]]]:
        directory, raw = self.directory, self._raw
        try:
            files = _files_table(directory, raw)
        except MultirateError:
            self.bad_file = True
            raise
        failures: dict[tuple, MultirateError] = {}  # by precedence: (1, name), (2,), (3, i), (4,)
        checked = set()

        def payload(name: str) -> bytes | None:
            checked.add(name)
            try:
                return _verified(directory, files, name)
            except MultirateError as exc:
                failures.setdefault((1, name), exc)
                return None

        try:
            method = Method.from_name(str(raw["method"]))
            ratio = int(raw["ratio"])
            source_ids = tuple(str(s) for s in raw["source_episode_ids"])
            entries = list(raw["episodes"])
        except (KeyError, TypeError, ValueError) as exc:
            failures[(2,)] = ParseFailure(f"{directory}/manifest.json: {exc!r}")
            entries = []
        except MultirateError as exc:
            failures[(2,)] = exc
            entries = []
        groups = None
        if not failures:
            try:
                # the dataset's rules, applied to what the manifest declares: a pass that
                # breaks them, or declares an empty entry, fails by them or by an entry
                self.entries = tuple(
                    (str(e["source_episode_id"]), int(e["offset"]), int(e["joints"]))
                    for e in entries
                )
                self.step_counts = tuple(int(e["step_count"]) for e in entries)
                self.manifest = DatasetManifest(method, ratio, source_ids)
                groups = source_groups(self.manifest, self.entries)
            except MultirateError as exc:
                failures[(4,)] = exc
            except (KeyError, TypeError, ValueError):
                pass  # an entry fails to parse: the pass names which
        clean = groups is not None and min(self.step_counts, default=1) >= 1
        for source, places in groups.items() if clean else [("", range(len(entries)))]:
            part = {}
            for i in places:
                try:
                    part[i] = _parse_entry(directory, files, entries[i], payload)
                except MultirateError as exc:
                    failures[(3, i)] = exc
                if failures:  # the pass fails: nothing more is kept
                    clean, part = False, {}
            if clean:
                yield source, part
        for name in sorted(files.keys() - checked):
            payload(name)
        if failures:
            first = min(failures)
            self.bad_file = first[0] == 1
            raise failures[first]


def read_dataset(in_dir: str | Path, *, manifest: dict | None = None) -> AugmentedDataset:
    """Load a dataset directory, verifying checksums, counts, and invariants.

    Accepts either the directory or its manifest.json path, and the parsed
    manifest when the caller already holds it.  Fails as DatasetReader does.
    """
    reader = DatasetReader(in_dir, manifest=manifest)
    subs = {}
    for _, part in reader:
        subs.update(part)
    return AugmentedDataset(episodes=[subs[i] for i in sorted(subs)], manifest=reader.manifest)
