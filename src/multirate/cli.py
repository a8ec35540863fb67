"""Command line front end: simulate, augment, validate, stats.

Exit codes: 0 success, 1 operation or validation failure, 2 usage error.
Reports written via --report contain no filesystem paths or timestamps so
that identical inputs yield byte-identical report files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from collections.abc import Callable, Iterator
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

from .augment import augment, check_batch, evenness_report, iter_steps, source_indices
from .errors import IoFailure, MultirateError, NumericalDivergence
from .io import (
    _as_directory,
    is_staging_name,
    load_manifest,
    read_dataset,
    read_episode,
    verify_checksums,
    write_dataset,
    write_episode,
)
from .model import (
    CHANNELS_PER_JOINT,
    AlignedEpisode,
    AugmentedDataset,
    Episode,
    Method,
    make_offsets,
)
from .sim import (
    TRAJECTORY_NAMES,
    SimConfig,
    SimResult,
    default_sim_config,
    load_sim_config,
    run_simulations,
)


def _write_report(path: str | None, report: dict) -> None:
    if path:
        try:
            Path(path).write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
        except OSError as exc:
            raise IoFailure(f"cannot write report {path}: {exc}") from exc


# Seeds simulated together; bounds the (N, 2, T, J, 3) stream buffer of one batch.
_SIM_CHUNK = 64


def _simulated(config: SimConfig, trajectory: str, seeds: range) -> Iterator[SimResult]:
    """Results in seed order, simulated a chunk of seeds at a time.

    A chunk that diverges is rerun one seed at a time, so the seeds before
    the first diverging one are still yielded and its own message is raised.
    """
    for start in range(0, len(seeds), _SIM_CHUNK):
        chunk = seeds[start : start + _SIM_CHUNK]
        try:
            results = run_simulations(config, trajectory, chunk)
        except NumericalDivergence:
            results = (r for seed in chunk for r in run_simulations(config, trajectory, [seed]))
        yield from results


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_sim_config(args.config) if args.config else default_sim_config()
    out_root = Path(args.out)
    written = []
    seeds = range(args.base_seed, args.base_seed + args.count)
    for result in _simulated(config, args.trajectory, seeds):
        ep = result.episode
        dest = write_episode(ep, out_root / ep.episode_id, overwrite=args.force).parent
        written.append(ep.episode_id)
        print(
            f"wrote {dest}  samples={ep.sample_count} frames={ep.frame_count} "
            f"ratio={ep.ratio} max_gap={result.max_position_gap:.3e} rad"
        )
    report = {
        "command": "simulate",
        "trajectory": args.trajectory,
        "episode_ids": written,
        "count": len(written),
    }
    _write_report(args.report, report)
    return 0


def _collect_episode_dirs(inputs: list[str]) -> list[Path]:
    found = []
    for raw in inputs:
        path = Path(raw)
        if (path / "manifest.json").is_file():
            found.append(path)
            continue
        if path.is_dir():
            kids = sorted(
                p for p in path.iterdir()
                if not is_staging_name(p.name) and (p / "manifest.json").is_file()
            )
            if kids:
                found.extend(kids)
                continue
        raise MultirateError(f"{path}: no episode directories found")
    return found


def cmd_augment(args: argparse.Namespace) -> int:
    method = Method.from_name(args.method)
    episodes = [read_episode(d) for d in _collect_episode_dirs(args.inputs)]
    manifest = check_batch(episodes, method)
    # the batch is checked whole, then augmented one source at a time as it is
    # written, so one source's sub-episodes are held, never the whole dataset
    streamed = SimpleNamespace(
        manifest=manifest,
        episodes=(sub for ep in episodes for sub in augment([ep], method).episodes),
    )
    dest = write_dataset(streamed, args.out, overwrite=args.force).parent
    count = len(episodes) * len(make_offsets(method, manifest.ratio))
    print(
        f"{len(episodes)} episodes -> {count} sub-episodes  "
        f"method={method.value} ratio={manifest.ratio}"
    )
    print(f"wrote {dest}")
    _write_report(
        args.report,
        {
            "command": "augment",
            "method": method.value,
            "ratio": manifest.ratio,
            "sources": len(episodes),
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
        elif path.is_dir():
            scanned.extend(sorted(p for p in path.iterdir() if p.is_dir()))
    parent = dataset_dir.resolve().parent
    for level in (parent.glob("*"), parent.glob("*/*")):
        scanned.extend(sorted(level))
    candidates.extend(p for p in scanned if not is_staging_name(p.name))
    out: dict[str, list[tuple[Path, dict]]] = {}
    # one directory may be reached by several spellings; each is read once
    seen = {dataset_dir.resolve()}
    for path in candidates:
        if not (path / "manifest.json").is_file():
            continue
        resolved = path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        try:
            man = load_manifest(path)
        except MultirateError:
            continue
        eid = str(man.get("episode_id"))
        if man.get("kind") == "episode" and eid in wanted:
            out.setdefault(eid, []).append((path, man))
    return out


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
    dataset_dir: Path,
    manifest: dict,
    payloads: dict[str, bytes],
    args: argparse.Namespace,
    checks: _Checks,
) -> None:
    ds = checks.run(
        "read",
        lambda: read_dataset(dataset_dir, manifest=manifest, payloads=payloads),
        detail=lambda ds: (
            f"{ds.episode_count} sub-episodes from "
            f"{len(ds.manifest.source_episode_ids)} sources"
        ),
    )
    if ds is None:
        return
    expected_offsets = make_offsets(ds.manifest.method, ds.manifest.ratio)

    def _offsets() -> str:
        for src, subs in ds.by_source.items():
            got = sorted(sub.provenance.offset for sub in subs)
            if tuple(got) != expected_offsets:
                raise MultirateError(
                    f"source {src}: offsets {got} != expected {list(expected_offsets)}"
                )
        return f"window {expected_offsets[0]}..{expected_offsets[-1]} per source"

    checks.run("offset-window", _offsets)

    def _ordering() -> str:
        got = [(sub.provenance.source_episode_id, sub.provenance.offset) for sub in ds.episodes]
        if got != [(src, off) for src in ds.by_source for off in expected_offsets]:
            raise MultirateError("sub-episodes are not source-major, offset-ascending")
        return "source-major, offsets ascending"

    checks.run("ordering", _ordering)

    # sources are read one at a time, each checked by both rows and dropped before the next
    candidates = _source_candidates(dataset_dir, args.sources, ds.manifest.source_episode_ids)
    failures: dict[str, MultirateError] = {}
    located = rederived = 0
    for eid, subs in ds.by_source.items():
        if _check_source(candidates.get(eid, []), subs, ds, failures):
            located += 1
            rederived += len(subs)
    if not located:
        checks.add("re-derivation", "skip", "no source episodes located")
        checks.add("coverage", "skip", "no source episodes located")
        return
    missing = len(ds.by_source) - located
    note = f"re-derived {rederived} sub-episodes from {located} sources"
    if missing:
        note += f" ({missing} sources not located)"
    checks.run("re-derivation", lambda: _raise_or(failures.get("re-derivation"), note))
    checks.run(
        "coverage",
        lambda: _raise_or(failures.get("coverage"), f"coverage exact for {located} sources"),
    )


def _raise_or(failure: MultirateError | None, note: str) -> str:
    if failure is not None:
        raise failure
    return note


def _check_source(
    candidates: list[tuple[Path, dict]],
    subs: tuple[AlignedEpisode, ...],
    ds: AugmentedDataset,
    failures: dict[str, MultirateError],
) -> bool:
    """Read one source and run each row that has not failed yet on it; False if none reads.

    A row's first failure, in source order, is kept in `failures`.
    """
    ep = _read_first(candidates)
    if ep is None:
        return False
    for name, check in (
        ("re-derivation", lambda: _rederive(ep, subs)),
        ("coverage", lambda: _coverage(ep, ds)),
    ):
        if name not in failures:
            try:
                check()
            except MultirateError as exc:
                failures[name] = exc
    return True


def _rederive(ep: Episode, subs: tuple[AlignedEpisode, ...]) -> None:
    for sub, rows in zip(subs, iter_steps(ep, [sub.provenance.offset for sub in subs])):
        # what AlignedEpisode.__eq__ compares; provenance matches by construction.  Rows
        # are compared as bytes: gathered steps are copies of source bytes, so a stored
        # -0.0 where the source holds +0.0 was not gathered from it.
        same = sub.cameras == ep.camera_ids and sub.rows.dtype == rows.dtype
        if not (same and sub.rows.tobytes() == rows.tobytes()):
            raise MultirateError(
                f"source {ep.episode_id} offset {sub.provenance.offset}: stored steps "
                "differ from re-derived steps"
            )


def _coverage(ep: Episode, ds: AugmentedDataset) -> None:
    rep = evenness_report(ds, ep)
    offsets = make_offsets(ds.manifest.method, ds.manifest.ratio)
    raw, clipped = source_indices(offsets, ds.manifest.ratio, ep.frame_count, ep.sample_count)
    want = np.bincount(clipped.ravel(), minlength=ep.sample_count)
    if not np.array_equal(rep.counts, want) or rep.clamped_steps != (raw != clipped).sum():
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
    payloads = checks.run(
        "checksums", lambda: verify_checksums(target, manifest), detail=lambda p: f"{len(p)} files"
    )
    if payloads is not None and manifest["kind"] == "dataset":
        _validate_dataset(target, manifest, payloads, args, checks)
    elif payloads is not None:
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


def _clamped_steps(ds: AugmentedDataset) -> int:
    """Steps whose stored source index is not the raw index k * R + offset."""
    # a dataset does not record source lengths, so only `raw` is compared, padded to
    # the longest sub-episode; a stored index that differs from it was clamped
    lengths = np.array([sub.step_count for sub in ds.episodes])
    raw = source_indices(
        [sub.provenance.offset for sub in ds.episodes], ds.manifest.ratio, lengths.max(), 1
    )[0]
    stored = np.concatenate([sub.source_index for sub in ds.episodes]).astype(np.int64)
    return int(np.count_nonzero(stored != raw[np.arange(raw.shape[1]) < lengths[:, None]]))


def _dataset_stats(ds: AugmentedDataset) -> dict:
    joints = ds.episodes[0].joints
    clamped = _clamped_steps(ds)
    # one copy of the observations, filled straight from each sub-episode's rows
    columns = np.empty((joints * CHANNELS_PER_JOINT, sum(sub.step_count for sub in ds.episodes)))
    np.concatenate([sub.observation.T for sub in ds.episodes], axis=1, out=columns)
    return {
        "command": "stats",
        "kind": "dataset",
        "method": ds.manifest.method.value,
        "ratio": ds.manifest.ratio,
        "sources": len(ds.manifest.source_episode_ids),
        "sub_episodes": ds.episode_count,
        "steps": columns.shape[1],
        "joints": joints,
        "clamped_steps": clamped,
        "offsets": dict(Counter(str(sub.provenance.offset) for sub in ds.episodes)),
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
        stats = _dataset_stats(read_dataset(target, manifest=manifest))
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
    p_sim.add_argument("--base-seed", type=int, default=0, help="seed of the first episode")
    p_sim.add_argument("--force", action="store_true", help="overwrite existing episodes")
    p_sim.add_argument("--report", help="write a JSON run report to this path")
    p_sim.set_defaults(fn=cmd_simulate)

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
    p_aug.set_defaults(fn=cmd_augment)

    p_val = sub.add_parser("validate", help="check an episode or dataset directory")
    p_val.add_argument("dir", help="directory to validate")
    p_val.add_argument(
        "--sources",
        action="append",
        default=[],
        help="extra directories to search for source episodes",
    )
    p_val.add_argument("--report", help="write a JSON check report to this path")
    p_val.set_defaults(fn=cmd_validate)

    p_st = sub.add_parser("stats", help="summarize an episode or dataset directory")
    p_st.add_argument("dir", help="directory to summarize")
    p_st.add_argument("--report", help="write a JSON stats report to this path")
    p_st.set_defaults(fn=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "count", 1) < 1:
        parser.error("--count must be >= 1")
    try:
        return args.fn(args)
    except MultirateError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
