"""Command line front end: simulate, augment, validate, stats.

Exit codes: 0 success, 1 operation or validation failure, 2 usage error.
Reports written via --report contain no filesystem paths or timestamps so
that identical inputs yield byte-identical report files.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import sys
from collections import Counter
from collections.abc import Callable, Iterator
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

from .augment import (
    augment,
    check_batch,
    count_clamped,
    gather_steps,
    source_indices,
    stored_indices,
)
from .errors import IoFailure, MultirateError, NumericalDivergence
from .io import (
    DatasetReader,
    _as_directory,
    _json_bytes,
    is_staging_name,
    load_manifest,
    read_episode,
    staging_dirs,
    verify_checksums,
    write_dataset,
    write_episode,
)
from .model import (
    CHANNELS_PER_JOINT,
    AlignedEpisode,
    DatasetManifest,
    Episode,
    Method,
    make_offsets,
    step_dtype,
)
from .sim import (
    TRAJECTORY_NAMES,
    SimConfig,
    SimResult,
    _simulations,
    default_sim_config,
    load_sim_config,
)


def _write_report(path: str | None, report: dict) -> None:
    if path:
        try:
            Path(path).write_bytes(_json_bytes(report))
        except OSError as exc:
            raise IoFailure(f"cannot write report {path}: {exc}") from exc


# Seeds simulated together; bounds the (N, 2, T, J, 3) stream buffer of one batch.
_SIM_CHUNK = 64


def _simulated(config: SimConfig, trajectory: str, seeds: range) -> Iterator[SimResult]:
    """Results in seed order, simulated a chunk of seeds at a time.

    Each result is made as it is asked for, so a caller that writes and drops
    it holds the chunk's buffers and one seed's episode.  A chunk that
    diverges is rerun one seed at a time, so the seeds before the first
    diverging one are still yielded and its own message is raised.
    """
    for start in range(0, len(seeds), _SIM_CHUNK):
        chunk = seeds[start : start + _SIM_CHUNK]
        try:
            # a chunk diverges at its first next(), before it yields a result
            yield from _simulations(config, trajectory, chunk)
        except NumericalDivergence:
            for seed in chunk:
                yield from _simulations(config, trajectory, [seed])


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_sim_config(args.config) if args.config else default_sim_config()
    out_root = Path(args.out)
    written = []
    base_seed = config.seed if args.base_seed is None else args.base_seed
    seeds = range(base_seed, base_seed + args.count)
    for result in _simulated(config, args.trajectory, seeds):
        ep = result.episode
        dest = write_episode(ep, out_root / ep.episode_id, overwrite=args.force).parent
        written.append(ep.episode_id)
        print(
            f"wrote {dest}  samples={ep.sample_count} frames={ep.frame_count} "
            f"ratio={ep.ratio} max_gap={result.max_position_gap:.3e} rad"
        )
        del result, ep  # written: dropped before the next seed's episode is made
    report = {
        "command": "simulate",
        "trajectory": args.trajectory,
        "episode_ids": written,
        "count": len(written),
    }
    _write_report(args.report, report)
    return 0


def _subdirs(path: Path) -> list[Path]:
    """The directories in `path`, symlinked ones too, by name; none when it cannot be listed.

    Entries are told apart by the type the listing gives, so plain files cost no stat.
    """
    try:
        with os.scandir(path) as entries:
            return sorted(Path(e.path) for e in entries if e.is_dir())
    except OSError:
        return []


def _collect_episode_dirs(inputs: list[str]) -> list[tuple[Path, dict | None]]:
    """Each episode directory with its parsed manifest, None where it is yet to be read.

    A directory named directly is read whatever it holds; one found by listing
    counts only when its manifest says `episode`.
    """
    found = []
    for raw in inputs:
        path = Path(raw)
        if (path / "manifest.json").is_file():
            found.append((path, None))
            continue
        listed = [
            (p, load_manifest(p)) for p in _subdirs(path)
            if not is_staging_name(p.name) and (p / "manifest.json").is_file()
        ]
        kids = [(p, man) for p, man in listed if man["kind"] == "episode"]
        if not kids:
            raise MultirateError(f"{path}: no episode directories found")
        found.extend(kids)
    return found


def cmd_augment(args: argparse.Namespace) -> int:
    method = Method.from_name(args.method)
    dirs = _collect_episode_dirs(args.inputs)
    # a write deletes the staging directories a killed writer may have left beside --out,
    # and an overwrite the directory at --out, so none of them may hold an input
    out = Path(args.out).resolve()
    doomed = list(staging_dirs(out))
    if args.force:
        doomed.append(out)
    for d, _ in dirs:
        if any(d.resolve().is_relative_to(p) for p in doomed):
            raise MultirateError(f"--out {args.out} would overwrite input episode {d}")
    sources = []  # what check_batch reads of each source, kept once the source is dropped

    def sub_episodes() -> Iterator[AlignedEpisode]:
        for d, man in dirs:
            ep = read_episode(d, manifest=man)
            sources.append(SimpleNamespace(episode_id=ep.episode_id, ratio=ep.ratio))
            subs = augment([ep], method).episodes
            del ep
            yield from subs
            del subs
        streamed.manifest = check_batch(sources, method)

    # each source is read, augmented and written before the next is read, inside the
    # publish: the output's lock and existence are checked before any source is read, and
    # a bad source, or a batch that fails its checks after the last, publishes nothing
    streamed = SimpleNamespace(manifest=None, episodes=sub_episodes())
    dest = write_dataset(streamed, args.out, overwrite=args.force).parent
    manifest = streamed.manifest
    count = len(sources) * len(make_offsets(method, manifest.ratio))
    print(
        f"{len(sources)} episodes -> {count} sub-episodes  "
        f"method={method.value} ratio={manifest.ratio}"
    )
    print(f"wrote {dest}")
    _write_report(
        args.report,
        {
            "command": "augment",
            "method": method.value,
            "ratio": manifest.ratio,
            "sources": len(sources),
            "sub_episodes": count,
        },
    )
    return 0


def _source_candidates(
    dataset_dir: Path, extra: list[str], wanted: tuple[str, ...]
) -> dict[str, list[tuple[Path, dict]]]:
    """Each wanted id's episode directories and manifests, nearest first; no payload is read."""
    candidates = []
    scanned = []  # found by listing a directory, so a staging directory is skipped
    for raw in extra:
        path = Path(raw)
        if (path / "manifest.json").is_file():
            candidates.append(path)
        else:
            scanned.extend(_subdirs(path))
    # the directories beside the dataset, then those one level below them
    beside = _subdirs(dataset_dir.resolve().parent)
    scanned += beside + [p for d in beside for p in _subdirs(d)]
    candidates.extend(p for p in scanned if not is_staging_name(p.name))
    out: dict[str, list[tuple[Path, dict]]] = {}
    # one directory may be reached by several spellings; each is read once, and one that
    # is gone by the time it is told apart from the others not at all
    seen = {None, _directory_key(dataset_dir)}
    for path in candidates:
        if not (path / "manifest.json").is_file():
            continue
        key = _directory_key(path)
        if key in seen:
            continue
        seen.add(key)
        try:
            man = load_manifest(path)
        except MultirateError:
            continue
        eid = man.get("episode_id")
        if man.get("kind") == "episode" and eid in wanted:
            out.setdefault(eid, []).append((path, man))
    return out


def _directory_key(path: Path) -> tuple[int, int] | None:
    """What tells the directory at `path` from others, symlinks followed; None when it is gone."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_dev, st.st_ino


def _read_first(candidates: list[tuple[Path, dict]]) -> Episode | None:
    """The first candidate that reads as an episode, or None."""
    for path, man in candidates:
        try:
            return read_episode(path, manifest=man)
        except MultirateError:
            continue
    return None


class _Checks:
    def __init__(self, artifact: Path) -> None:
        self.rows: list[dict[str, str]] = []
        self.failed = 0
        self._artifact = artifact

    def add(self, name: str, status: str, detail: str = "") -> None:
        # rows name files by the artifact's own name, never by where it sits
        where = str(self._artifact)
        detail = detail.replace(where, self._artifact.name or where)
        self.rows.append({"name": name, "status": status, "detail": detail})
        if status == "fail":
            self.failed += 1
        tag = {"ok": "ok  ", "fail": "FAIL", "skip": "skip"}[status]
        line = f"{tag} {name}"
        if detail:
            line += f": {detail}"
        print(line)

    def run(self, name: str, fn: Callable[[], Any], detail: Callable[[Any], str] = str) -> Any:
        """One row: fn()'s value, or None when it raised and the row failed."""
        try:
            value = fn()
        except MultirateError as exc:
            self.add(name, "fail", f"{type(exc).__name__}: {exc}")
            return None
        self.add(name, "ok", detail(value))
        return value


def _validate_dataset(
    dataset_dir: Path, manifest: dict, args: argparse.Namespace, checks: _Checks
) -> None:
    reader = DatasetReader(dataset_dir, manifest=manifest)
    candidates = None
    failed: dict[str, str] = {}  # each source row's first failure, in source order
    located = rederived = 0
    try:
        # each source is checked by both source rows as it is read, and dropped before the
        # next; the rows catch their own errors, so an error here is the reader's
        for eid, part in reader:
            subs = tuple(part.values())
            if candidates is None:
                ids = reader.manifest.source_episode_ids
                candidates = _source_candidates(dataset_dir, args.sources, ids)
            ep = _read_first(candidates.get(eid, []))
            if ep is not None:
                located += 1
                rederived += len(subs)
                # one index computation per source feeds both rows: the sample index of
                # each stored offset's steps, in stored order
                raw, clipped = source_indices(
                    [sub.provenance.offset for sub in subs],
                    ep.ratio, ep.frame_count, ep.sample_count,
                )
                rows = (
                    ("re-derivation", lambda: _rederive(ep, subs, clipped)),
                    ("coverage", lambda: _coverage(ep, subs, reader.manifest, raw, clipped)),
                )
                for name, check in rows:
                    if name not in failed:
                        try:
                            check()
                        except MultirateError as exc:
                            failed[name] = f"{type(exc).__name__}: {exc}"
                del raw, clipped
            del ep, part, subs
    except MultirateError as exc:
        error = f"{type(exc).__name__}: {exc}"
        if reader.bad_file:
            checks.add("checksums", "fail", error)
        else:
            checks.add("checksums", "ok", f"{len(manifest['files'])} files")
            checks.add("read", "fail", error)
        return
    checks.add("checksums", "ok", f"{len(manifest['files'])} files")
    ds = reader.manifest
    checks.add(
        "read", "ok",
        f"{len(reader.entries)} sub-episodes from {len(ds.source_episode_ids)} sources",
    )
    window = make_offsets(ds.method, ds.ratio)  # each source's offsets, as the reader checked
    checks.add("offset-window", "ok", f"window {window[0]}..{window[-1]} per source")

    def _ordering() -> str:
        got = [(e.source, e.offset) for e in reader.entries]
        if got != [(src, off) for src in ds.source_episode_ids for off in window]:
            raise MultirateError("sub-episodes are not source-major, offset-ascending")
        return "source-major, offsets ascending"

    checks.run("ordering", _ordering)

    if not located:
        checks.add("re-derivation", "skip", "no source episodes located")
        checks.add("coverage", "skip", "no source episodes located")
        return
    missing = len(ds.source_episode_ids) - located
    note = f"re-derived {rederived} sub-episodes from {located} sources"
    if missing:
        note += f" ({missing} sources not located)"
    notes = {"re-derivation": note, "coverage": f"coverage exact for {located} sources"}
    for name in notes:
        checks.add(name, "fail" if name in failed else "ok", failed.get(name, notes[name]))


def _rederive(ep: Episode, subs: tuple[AlignedEpisode, ...], clipped: np.ndarray) -> None:
    """Fail unless each stored sub-episode is its source gathered at its row of `clipped`."""
    steps = np.empty(ep.frame_count, step_dtype(ep.joints))  # one gather buffer for all offsets
    # every field of a step is 8-byte words, so steps compare as their words, neither side
    # copied: gathered steps are copies of source bytes, so a stored -0.0 where the source
    # holds +0.0 was not gathered from it
    words = np.dtype(("<u8", steps.dtype.itemsize // 8))
    want = steps.view(words)
    differ = np.empty(want.shape, dtype=bool)
    cameras = ep.camera_ids
    for sub, _ in zip(subs, gather_steps(ep, clipped, out=steps)):
        # what AlignedEpisode.__eq__ compares; provenance matches by construction
        same = sub.cameras == cameras and sub.rows.dtype == steps.dtype
        if not (same and sub.rows.shape == steps.shape) or np.count_nonzero(
            np.not_equal(sub.rows.view(words), want, out=differ)
        ):
            raise MultirateError(
                f"source {ep.episode_id} offset {sub.provenance.offset}: stored steps "
                "differ from re-derived steps"
            )


def _coverage(
    ep: Episode,
    subs: tuple[AlignedEpisode, ...],
    manifest: DatasetManifest,
    raw: np.ndarray,
    clipped: np.ndarray,
) -> None:
    """Fail unless the stored indices use each sample and clamp as often as the method does."""
    stored = stored_indices(manifest, subs, ep)
    # the stored offsets are the method's (source_groups checks), so `raw` and `clipped` hold
    # the method's indices, in stored order
    t_len = ep.sample_count
    counts = np.bincount(stored.ravel(), minlength=t_len)
    if not np.array_equal(counts, np.bincount(clipped.ravel(), minlength=t_len)) or (
        np.count_nonzero(stored != raw) != np.count_nonzero(clipped != raw)
    ):
        raise MultirateError(f"source {ep.episode_id}: coverage counts mismatch")


def _manifest_row(manifest: dict) -> str:
    if manifest["kind"] == "dataset":
        return f"kind=dataset method={manifest.get('method')}"
    return f"kind=episode id={manifest.get('episode_id')}"


def cmd_validate(args: argparse.Namespace) -> int:
    # absolute, so that failures name the artifact the same way wherever it is;
    # a manifest path stands for its directory, as in the readers
    target = _as_directory(os.path.abspath(args.dir))
    checks = _Checks(target)
    manifest = checks.run("manifest-parse", lambda: load_manifest(target), detail=_manifest_row)
    if manifest is None:
        _write_report(args.report, {"command": "validate", "checks": checks.rows})
        return 1
    if manifest["kind"] == "dataset":
        _validate_dataset(target, manifest, args, checks)
    else:
        payloads = checks.run(
            "checksums", lambda: verify_checksums(target, manifest),
            detail=lambda p: f"{len(p)} files",
        )
        if payloads is not None:
            checks.run(
                "stream-invariants",
                lambda: read_episode(target, manifest=manifest, payloads=payloads),
                detail=lambda ep: (
                    f"samples={ep.sample_count} frames={ep.frame_count} ratio={ep.ratio} "
                    f"joints={ep.joints}"
                ),
            )
    _write_report(args.report, {"command": "validate", "checks": checks.rows})
    if checks.failed:
        print(f"{checks.failed} check(s) failed")
        return 1
    return 0


_CHANNEL_NAMES = ("angle", "velocity", "torque")


def _column_summary(columns: np.ndarray) -> dict:
    """Per-joint min/max/mean for each channel of a (3 * joints, samples) C-ordered array.

    Row 3j + c holds channel c of joint j; a contiguous row's mean sums as its 1-d column's.
    """
    stats = np.stack([columns.min(axis=1), columns.max(axis=1), columns.mean(axis=1)], axis=1)
    cells = iter(dict(zip(("min", "max", "mean"), row)) for row in stats.tolist())
    return {
        f"joint{j}": {name: next(cells) for name in _CHANNEL_NAMES}
        for j in range(len(columns) // CHANNELS_PER_JOINT)
    }


def _channel_summary(data: np.ndarray) -> dict:
    """Per-joint min/max/mean for each channel of a (samples, joints, 3) block."""
    return _column_summary(np.ascontiguousarray(data.reshape(len(data), -1).T))


def _dataset_stats(reader: DatasetReader) -> dict:
    groups = iter(reader)
    columns, clamped = None, 0
    for _, part in groups:
        if columns is None:  # a source is handed over only while the declared counts are sound
            # Python ints: a declared total past int64 neither wraps nor turns into a float
            starts = [0, *itertools.accumulate(e.step_count for e in reader.entries)]
            try:
                columns = np.empty((reader.entries[0].joints * CHANNELS_PER_JOINT, starts[-1]))
            except (MemoryError, ValueError):
                # more steps declared than can be allocated: the rest of the pass says
                # whether the manifest declares steps its files do not hold
                for _ in groups:
                    pass
                raise
        # each payload goes into its place among the observation columns as it arrives
        for i in part:
            columns[:, starts[i] : starts[i + 1]] = part[i].observation.T
        clamped += count_clamped(tuple(part.values()), reader.manifest.ratio)
        del part
    ds = reader.manifest
    return {
        "command": "stats",
        "kind": "dataset",
        "method": ds.method.value,
        "ratio": ds.ratio,
        "sources": len(ds.source_episode_ids),
        "sub_episodes": len(reader.entries),
        "steps": columns.shape[1],
        "joints": reader.entries[0].joints,
        "clamped_steps": clamped,
        "offsets": dict(Counter(str(e.offset) for e in reader.entries)),
        "observed": _column_summary(columns),
    }


def _episode_stats(ep: Episode) -> dict:
    return {
        "command": "stats",
        "kind": "episode",
        "episode_id": ep.episode_id,
        "robot_rate_hz": ep.leader.rate_hz,
        "frame_rate_hz": ep.frame_streams[0].rate_hz,
        "ratio": ep.ratio,
        "samples": ep.sample_count,
        "frames": ep.frame_count,
        "joints": ep.joints,
        "cameras": list(ep.camera_ids),
        "leader": _channel_summary(ep.leader.data),
        "follower": _channel_summary(ep.follower.data),
    }


def _print_channel_summary(prefix: str, summary: dict) -> None:
    for joint, channels in summary.items():
        for name, s in channels.items():
            print(
                f"{prefix}{joint} {name}: min={s['min']:.6f} max={s['max']:.6f} "
                f"mean={s['mean']:.6f}"
            )


def _print_stats(stats: dict) -> None:
    for key, value in stats.items():
        if key == "command":
            continue
        if key == "offsets":
            for off in sorted(value, key=int):
                print(f"offset {off}: {value[off]} sub-episode(s)")
        elif key == "observed":
            _print_channel_summary("", value)
        elif key in ("leader", "follower"):
            _print_channel_summary(f"{key} ", value)
        else:
            print(f"{key}: {value}")


def cmd_stats(args: argparse.Namespace) -> int:
    target = Path(args.dir)
    manifest = load_manifest(target)
    if manifest["kind"] == "dataset":
        stats = _dataset_stats(DatasetReader(target, manifest=manifest))
    else:
        stats = _episode_stats(read_episode(target, manifest=manifest))
    _print_stats(stats)
    _write_report(args.report, stats)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multirate",
        description="Simulate, augment, and inspect multirate demonstration data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate bilateral demonstration episodes")
    p_sim.add_argument("--config", help="simulation config JSON (default: built-in rig)")
    p_sim.add_argument(
        "--trajectory", required=True, choices=TRAJECTORY_NAMES, help="operator schedule"
    )
    p_sim.add_argument("--out", required=True, help="directory to hold episode directories")
    p_sim.add_argument("--count", type=int, default=1, help="number of episodes")
    p_sim.add_argument(
        "--base-seed", type=int, help="seed of the first episode (default: the config's seed)"
    )
    p_sim.add_argument("--force", action="store_true", help="overwrite existing episodes")
    p_sim.add_argument("--report", help="write a JSON run report to this path")

    p_aug = sub.add_parser("augment", help="expand episodes into an aligned dataset")
    p_aug.add_argument("inputs", nargs="+", help="episode dirs, or dirs of episode dirs")
    p_aug.add_argument(
        "--method",
        required=True,
        choices=[m.value for m in Method],
        help="offset window to apply",
    )
    p_aug.add_argument("--out", required=True, help="dataset directory to write")
    p_aug.add_argument("--force", action="store_true", help="overwrite an existing dataset")
    p_aug.add_argument("--report", help="write a JSON run report to this path")

    p_val = sub.add_parser("validate", help="check an episode or dataset directory")
    p_val.add_argument("dir", help="directory to validate")
    p_val.add_argument(
        "--sources",
        action="append",
        default=[],
        help="extra directories to search for source episodes",
    )
    p_val.add_argument("--report", help="write a JSON check report to this path")

    p_st = sub.add_parser("stats", help="summarize an episode or dataset directory")
    p_st.add_argument("dir", help="directory to summarize")
    p_st.add_argument("--report", help="write a JSON stats report to this path")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "count", 1) < 1:
        parser.error("--count must be >= 1")
    try:
        # looked up on each call, not kept in the parser, so a replaced cmd_* is what runs
        rc = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
        return rc
    except MultirateError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout's reader has gone (`multirate stats DS | head`): end quietly, with the
        # process's stdout pointed at devnull so that the flush at exit has nothing to fail on
        if sys.stdout is not sys.__stdout__:
            raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
