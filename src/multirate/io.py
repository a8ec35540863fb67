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
from collections import namedtuple
from collections.abc import Iterator
from pathlib import Path
from typing import Any

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
    DatasetManifest,
    Episode,
    FrameStream,
    Method,
    Provenance,
    RobotStream,
    _json_int,
    _json_str,
    _json_strs,
    frame_records,
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


def staging_dirs(target: Path) -> tuple[Path, Path]:
    """The `<name>.tmp` and `<name>.old.tmp` directories a write to `target` works in.

    A write to `target` deletes whatever a killed writer left at either.
    """
    return target.parent / (target.name + ".tmp"), target.parent / (target.name + ".old.tmp")


def is_staging_name(name: str) -> bool:
    """True for the names of the directories staging_dirs gives.

    A killed writer can leave either behind; directory scans skip them, so
    they are never taken for artifacts.
    """
    return name.endswith(".tmp")


class _Staging:
    """One artifact staged in `<name>.tmp` beside `target`, then renamed into place.

    Entering takes the exclusive `<name>.lock`, checks `target` under it, clears
    what a killed writer left at staging_dirs(target) and makes the staging
    directory.  Leaving, published or not, removes the staging directory and the
    lock, so a write that fails leaves `target` as it was; an OSError raised in
    the block becomes IoFailure.
    """

    def __init__(self, target: str | Path, kind: str, overwrite: bool) -> None:
        self.target, self.kind, self.overwrite = Path(target), kind, overwrite
        self.tmp, self.aside = staging_dirs(self.target)
        self.lock = self.target.parent / (self.target.name + ".lock")
        self.stamps: dict[str, dict] = {}

    def __enter__(self) -> _Staging:
        target = self.target
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoFailure(f"cannot create parent of {target}: {exc}") from exc
        try:
            fd = os.open(self.lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise IoFailure(f"{target} is locked by another writer ({self.lock} exists)") from None
        except OSError as exc:
            raise IoFailure(f"cannot create lock for {target}: {exc}") from exc
        try:
            os.close(fd)
            # checked under the lock, so a target another writer published first is never replaced
            if target.exists() and not self.overwrite:
                raise IoFailure(f"{target} already exists (pass overwrite to replace it)")
            for stale in (self.tmp, self.aside):
                if stale.exists():
                    shutil.rmtree(stale)
            self.tmp.mkdir()
        except BaseException as exc:
            self.__exit__(type(exc), exc, exc.__traceback__)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            os.unlink(self.lock)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise IoFailure(f"failed to publish {self.target}: {exc}") from exc

    def put(self, name: str, data: np.ndarray | bytes) -> None:
        """Write one payload, stamped and written as the buffer it is, never copied."""
        view = memoryview(data)
        self.stamps[name] = {"bytes": view.nbytes, "crc32": _crc(view)}
        (self.tmp / name).write_bytes(view)

    def publish(self, fields: dict) -> Path:
        """Write manifest.json, declaring every payload put, and rename the staged directory
        into place; returns the manifest path.  An overwrite sets the old directory aside,
        and puts it back if the rename fails.
        """
        manifest = {"format_version": FORMAT_VERSION, "kind": self.kind, **fields,
                    "files": self.stamps}
        (self.tmp / "manifest.json").write_bytes(_json_bytes(manifest))
        target, aside = self.target, self.aside
        if target.is_dir() and not target.is_symlink():
            os.replace(target, aside)
        try:
            os.replace(self.tmp, target)
        except BaseException:
            if aside.exists():
                os.replace(aside, target)
            raise
        shutil.rmtree(aside, ignore_errors=True)
        return target / "manifest.json"


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
    if type(version) is not int or version != FORMAT_VERSION:  # not `true`, not `1.0`
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
    """The bytes of payload `name` in `directory`: one open, one fstat and one read.

    The read asks for one byte more than the fstat size.  When exactly that size
    comes back, the file ended where the fstat said; otherwise (the file grew or
    shrank since, or the read stopped short) reading goes on to EOF.  Anything
    but a regular file is missing; the open does not block, so a FIFO in a
    payload's place is refused, not waited on.
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
                data = os.read(fd, st.st_size + 1)
                if len(data) == st.st_size:
                    return data
                chunks = [data]
                while chunk := os.read(fd, 1 << 16):
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
    if type(stamp.get("bytes")) is not int or len(data) != stamp["bytes"]:
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


def _declared(table: dict, directory: Path, name: str) -> Any:
    """table[name] of a files table or of its verified payloads; undeclared names are refused."""
    if name not in table:
        raise ParseFailure(f"{directory}/manifest.json: {name} is not declared in files")
    return table[name]


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
    with _Staging(out_dir, "episode", overwrite) as staging:
        staging.put(_LEADER_FILE, _robot_payload(episode.leader))
        staging.put(_FOLLOWER_FILE, _robot_payload(episode.follower))
        for fs in episode.frame_streams:
            staging.put(f"frames_{fs.camera_id}.bin", fs.packed)
        return staging.publish(
            {
                "episode_id": episode.episode_id,
                "robot_rate_hz": episode.leader.rate_hz,
                "frame_rate_hz": episode.frame_streams[0].rate_hz,
                "joints": episode.joints,
                "sample_count": episode.sample_count,
                "frame_count": episode.frame_count,
                "cameras": list(episode.camera_ids),
                "meta": dict(episode.meta),
            }
        )


def _parse_robot(
    payloads: dict[str, bytes], directory: Path, name: str, sample_count: int, joints: int,
    rate_hz: int,
) -> RobotStream:
    data = _declared(payloads, directory, name)
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
    data = _declared(payloads, directory, name)
    try:
        starts, seqs = frame_records(data)
    except ParseFailure as exc:
        raise ParseFailure(f"{directory / name}: {exc}") from None
    if len(starts) != frame_count:
        raise ValidationFailure(
            f"{directory / name}: holds {len(starts)} frames, manifest declares {frame_count}"
        )
    return FrameStream._located(camera_id, rate_hz, data, starts, seqs)


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
        episode_id = _json_str(raw, "episode_id")
        robot_rate_hz = _json_int(raw, "robot_rate_hz")
        frame_rate_hz = _json_int(raw, "frame_rate_hz")
        joints = _json_int(raw, "joints")
        sample_count = _json_int(raw, "sample_count")
        frame_count = _json_int(raw, "frame_count")
        cameras = _json_strs(raw, "cameras")
        meta = raw.get("meta", {})
        meta = {k: _json_str(meta, k) for k in meta.keys()}  # keys(): a list fails here
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


# one `episodes` entry of a dataset manifest, as parsed; source_groups checks the first three
_Entry = namedtuple("_Entry", "source offset joints step_count file cameras")


def _parse_entry(directory: Path, files: dict, entry: object) -> _Entry:
    """The fields of one `episodes` entry, checked before its file is read."""
    try:
        parsed = _Entry(
            source=_json_str(entry, "source_episode_id"),
            offset=_json_int(entry, "offset"),
            joints=_json_int(entry, "joints"),
            step_count=_json_int(entry, "step_count"),
            file=_json_str(entry, "file"),
            cameras=_json_strs(entry, "cameras"),
        )
        step_dtype(parsed.joints)  # a joint count no step can have: below one, or too large
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"{directory}/manifest.json: bad episode entry: {exc!r}") from exc
    _declared(files, directory, parsed.file)  # only declared names, all plain, are read
    return parsed


def _entry_episode(directory: Path, entry: _Entry, data: bytes) -> AlignedEpisode:
    """The sub-episode `entry` declares, over its file's verified bytes `data`."""
    dtype, steps = step_dtype(entry.joints), entry.step_count
    if len(data) != steps * dtype.itemsize:
        raise ValidationFailure(
            f"{directory / entry.file}: {len(data)} bytes, manifest implies "
            f"{steps * dtype.itemsize} ({steps} steps of {dtype.itemsize} bytes)"
        )
    prov = Provenance(source_episode_id=entry.source, offset=entry.offset)
    return AlignedEpisode(np.frombuffer(data, dtype=dtype), entry.cameras, prov)


def write_dataset(dataset: AugmentedDataset, out_dir: str | Path, overwrite: bool = False) -> Path:
    """Persist an augmented dataset; returns the path of the manifest written.

    `dataset.episodes` is iterated once and each sub-episode's rows are
    written as they come, so `episodes` may be an iterator that gathers each
    AlignedEpisode just before it is written (the command line's augment
    passes one that reads and augments one source at a time).
    `dataset.manifest` is read after the last sub-episode, so that iterator
    may settle it as it goes.  The sub-episodes written must pass the rules
    read_dataset applies (source_groups).  If any of this raises, nothing is
    published.
    """
    entries = []
    with _Staging(out_dir, "dataset", overwrite) as staging:
        for i, sub in enumerate(dataset.episodes):
            name = f"steps-{i:05d}.bin"
            # a read-only strided view of payload bytes is kept by AlignedEpisode as it is
            staging.put(name, np.ascontiguousarray(sub.rows))
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
        manifest = dataset.manifest
        placed = [(e["source_episode_id"], e["offset"], e["joints"]) for e in entries]
        source_groups(manifest, placed)
        return staging.publish(
            {
                "method": manifest.method.value,
                "ratio": manifest.ratio,
                "source_episode_ids": list(manifest.source_episode_ids),
                "episodes": entries,
            }
        )


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
    count, unknown source, joint count, each source's offset window).  Each
    entry is parsed once, before any payload is read.  Nothing more is
    yielded once the pass is sure to fail, so every source handed over is
    well formed.

    `manifest` and `entries` (each entry's source, offset, joints, step_count,
    file and cameras, in manifest order) are set before the first source is
    yielded, as the manifest declares them; a pass that ends without raising
    confirms them.  After a pass that raised, `bad_file` tells a
    declared file's defect from the manifest's.
    """

    def __init__(self, path: str | Path, *, manifest: dict | None = None) -> None:
        self.directory, self._raw = _open_manifest(path, "dataset", manifest)
        self.manifest: DatasetManifest | None = None
        self.entries: tuple[_Entry, ...] = ()
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
            method = Method.from_name(_json_str(raw, "method"))
            ratio = _json_int(raw, "ratio")
            source_ids = _json_strs(raw, "source_episode_ids")
            entries = list(raw["episodes"])
        except (KeyError, TypeError, ValueError) as exc:
            failures[(2,)] = ParseFailure(f"{directory}/manifest.json: {exc!r}")
            entries = []
        except MultirateError as exc:
            failures[(2,)] = exc
            entries = []
        parsed = {}  # each entry that parses, by its place
        for i, entry in enumerate(entries):
            try:
                parsed[i] = _parse_entry(directory, files, entry)
            except MultirateError as exc:
                failures[(3, i)] = exc
        groups = None
        if not failures:
            # the dataset's rules, applied to what the manifest declares
            self.entries = tuple(parsed.values())
            try:
                self.manifest = DatasetManifest(method, ratio, source_ids)
                groups = source_groups(self.manifest, [e[:3] for e in self.entries])
            except MultirateError as exc:
                failures[(4,)] = exc
        clean = groups is not None and min(e.step_count for e in self.entries) >= 1
        for source, places in groups.items() if clean else [("", parsed)]:
            part = {}
            for i in places:
                data = payload(parsed[i].file)
                if data is not None:
                    try:
                        part[i] = _entry_episode(directory, parsed[i], data)
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


def read_dataset(in_dir: str | Path) -> AugmentedDataset:
    """Load a dataset directory, verifying checksums, counts, and invariants.

    Accepts either the directory or its manifest.json path.  Fails as
    DatasetReader does.
    """
    reader = DatasetReader(in_dir)
    subs = {}
    for _, part in reader:
        subs.update(part)
    return AugmentedDataset(episodes=[subs[i] for i in sorted(subs)], manifest=reader.manifest)
