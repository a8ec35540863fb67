#!/usr/bin/env python3
"""Benchmark of the multirate pipeline, driven through its public entry points.

    python3 bench/run.py --workload expand_dabi --seed 1 --seconds 56 --trace 0
    python3 bench/run.py --workload all

Each workload runs in one process and one thread as a closed loop: each
command starts when the previous one ends. One iteration is the README flow
`simulate -> augment -> validate -> stats` through `multirate.cli.main`,
then the training load `multirate.io.read_dataset`. Iterations repeat until
`--seconds` are used and every time is the median over iterations.

`--trace 0` times the flow with nothing patched and reports the end-to-end
metrics. `--trace 1` alternates untraced and traced iterations; the traced
ones wrap every public function of `sim`, `augment`, `io`, `cli` and `model`
(see spans.py) and yield the per-layer metrics and the tracing overhead.

Outputs are checked on every iteration; see NOTES.md for the checks. The
last line of output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Run from anywhere inside a checkout
that holds `src/multirate`; without it the benchmark exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from pathlib import Path

import numpy as np

import spans as spans_mod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
DEFAULT_SEED = 1
SECOND_SEED = 2  # documented second seed: counts repeat, timings fall within bounds
SETUP_REPEATS = 3
CAMERAS = ("overhead", "wrist")


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    joints: int
    robot_rate_hz: int
    frame_rate_hz: int
    duration_s: float
    sources: int  # recordings that get augmented
    held_out: int = 0  # synthetic recordings left next to the sources, not augmented
    simulate: bool = False  # sources come from `multirate simulate` inside the flow

    @property
    def ratio(self) -> int:
        return self.robot_rate_hz // self.frame_rate_hz

    @property
    def samples(self) -> int:
        return round(self.duration_s * self.robot_rate_hz)

    @property
    def frames(self) -> int:
        return (self.samples - 1) // self.ratio + 1

    @property
    def offsets(self) -> tuple[int, ...]:
        """Per-frame offsets of the method, from the README table.

        Written out here rather than taken from `multirate.augment`, so the
        reference check does not trust the code it checks.
        """
        between = self.ratio - 1
        if self.method == "downsample":
            return (0,)
        if self.method == "forward":
            return tuple(range(self.ratio))
        return tuple(range(-(between // 2), between - between // 2 + 1))

    @property
    def steps(self) -> int:
        return self.sources * len(self.offsets) * self.frames

    def sizes(self) -> dict:
        out = dataclasses.asdict(self)
        out.update(ratio=self.ratio, samples=self.samples, frames=self.frames, steps=self.steps)
        return out


# Why each workload exists is in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "readme_pipeline",
            method="dabi", joints=5, robot_rate_hz=1000, frame_rate_hz=100, duration_s=1.0,
            sources=8, simulate=True,
        ),
        Workload(
            "expand_dabi",
            method="dabi", joints=5, robot_rate_hz=1000, frame_rate_hz=100, duration_s=3.0,
            sources=6, held_out=2,
        ),
        Workload(
            "wide_forward",
            method="forward", joints=32, robot_rate_hz=400, frame_rate_hz=100, duration_s=3.0,
            sources=16,
        ),
    )
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("augment_s", "s"),
    ("validate_s", "s"),
    ("stats_s", "s"),
    ("load_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("sim.samples_per_s", "1/s"),
    ("sim.samples", "count"),
    ("augment.augment.self_s", "s"),
    ("augment.ns_per_step", "ns"),
    ("augment.steps", "count"),
    ("augment.slice_episode.calls", "count"),
    ("augment.slice_episode.self_s", "s"),
    ("augment.evenness_report.self_s", "s"),
    ("io.write_episode.self_s", "s"),
    ("io.write_episode.bytes", "B"),
    ("io.read_episode.calls", "count"),
    ("io.read_episode.self_s", "s"),
    ("io.write_dataset.self_s", "s"),
    ("io.write_dataset.mb_per_s", "MB/s"),
    ("io.read_dataset.calls", "count"),
    ("io.read_dataset.self_s", "s"),
    ("io.read_dataset.mb_per_s", "MB/s"),
    ("io.verify_checksums.self_s", "s"),
    ("io.read_amplification.augment", "ratio"),
    ("io.read_amplification.validate", "ratio"),
    ("io.read_amplification.stats", "ratio"),
    ("cli.validate.self_s", "s"),
    ("cli.validate.source_read_ratio", "ratio"),
    ("cli.stats.self_s", "s"),
    ("model.bytes_per_step", "B"),
    ("trace.overhead", "ratio"),
)

VALIDATE_CHECKS = {"checksums", "read", "offset-window", "ordering", "re-derivation", "coverage"}


def _load_package():
    """Import multirate from this checkout's src/, never from site-packages."""
    if not (SRC / "multirate" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC}/multirate not found; run inside a multirate checkout")
    sys.path.insert(0, str(SRC))
    import multirate
    import multirate.cli
    import multirate.io

    if Path(multirate.__file__).resolve().parent != SRC / "multirate":
        raise SystemExit(f"error: imported multirate from {multirate.__file__}, not {SRC}")
    return multirate


# ---------------------------------------------------------------- set-up


def _startup_s() -> float:
    """One fresh interpreter importing the CLI, as every `multirate` command pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import multirate.cli"], env=env, check=True)
    return time.perf_counter() - t0


def _write_inputs(mr, wl: Workload, seed: int, out: Path) -> None:
    """The workload's inputs: a rig config, or seeded random-walk recordings."""
    out.mkdir(parents=True)
    if wl.simulate:
        default = mr.sim.default_sim_config()
        rig = dataclasses.replace(
            default,
            joints=default.joints[:1] * wl.joints,
            robot_rate_hz=wl.robot_rate_hz,
            frame_rate_hz=wl.frame_rate_hz,
            duration_s=wl.duration_s,
        )
        (out / "rig.json").write_text(json.dumps(mr.sim.sim_config_to_dict(rig), indent=2))
        return
    m = mr.model
    rng = np.random.default_rng([seed, zlib.crc32(wl.name.encode())])
    shape = (wl.samples, wl.joints, 3)
    for i in range(wl.sources + wl.held_out):
        leader = rng.normal(0.0, 1e-3, shape).cumsum(axis=0)
        follower = leader + rng.normal(0.0, 1e-4, shape)
        records = tuple(
            m.FrameRecord(k, follower[k * wl.ratio, :, 0].astype("<f8").tobytes())
            for k in range(wl.frames)
        )
        ep = m.Episode(
            episode_id=f"{'train' if i < wl.sources else 'heldout'}-{i:03d}",
            leader=m.RobotStream(wl.robot_rate_hz, leader),
            follower=m.RobotStream(wl.robot_rate_hz, follower),
            frame_streams=tuple(m.FrameStream(c, wl.frame_rate_hz, records) for c in CAMERAS),
            meta={"source": "random-walk", "seed": str(seed)},
        )
        mr.io.write_episode(ep, out / ep.episode_id)


def set_up(mr, wl: Workload, seed: int, work: Path, repeats: int) -> tuple[float, str]:
    """Generate the inputs `repeats` times into work/inputs; median seconds and digest.

    Every repeat must write the same bytes; a mismatch raises RuntimeError.
    """
    times, digests = [], set()
    for r in range(repeats):
        out = work / f"setup-{r}"
        t0 = time.perf_counter()
        _write_inputs(mr, wl, seed, out)
        times.append(time.perf_counter() - t0)
        digests.add(tree_digest([out], out))
        if r + 1 < repeats:
            shutil.rmtree(out)
    if len(digests) != 1:
        raise RuntimeError(f"set-up wrote different bytes on {repeats} repeats with one seed")
    out.rename(work / "inputs")
    return statistics.median(times), digests.pop()


# ------------------------------------------------------------ one iteration


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool = True
    detail: str = ""


def _cli(mr, name: str, argv: list[str]) -> Op:
    out, err = StringIO(), StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = mr.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception:  # a crash is a failed operation, not the end of the run
        rc, err = "exception", StringIO(traceback.format_exc())
    dt = time.perf_counter() - t0
    return Op(name, dt, rc == 0, "" if rc == 0 else f"exit {rc}: {err.getvalue().strip()[-400:]}")


def run_flow(mr, wl: Workload, seed: int, work: Path) -> tuple[dict[str, Op], float, float]:
    """The timed closed loop; returns ops by name, wall seconds and CPU seconds."""
    data, reports = work / "dataset", work / "reports"
    reports.mkdir()
    ops: dict[str, Op] = {}
    c0, t0 = time.process_time(), time.perf_counter()
    if wl.simulate:
        ops["simulate"] = _cli(mr, "simulate", [
            "simulate", "--config", str(work / "inputs" / "rig.json"),
            "--trajectory", "pick_sweep", "--out", str(work / "demos"),
            "--count", str(wl.sources), "--base-seed", str(seed * wl.sources),
            "--report", str(reports / "simulate.json"),
        ])
        sources = [str(work / "demos")]
    else:
        sources = [str(work / "inputs" / f"train-{i:03d}") for i in range(wl.sources)]
    ops["augment"] = _cli(mr, "augment", [
        "augment", *sources, "--method", wl.method, "--out", str(data),
        "--report", str(reports / "augment.json"),
    ])
    ops["validate"] = _cli(mr, "validate", [
        "validate", str(data), "--report", str(reports / "validate.json"),
    ])
    ops["stats"] = _cli(mr, "stats", [
        "stats", str(data), "--report", str(reports / "stats.json"),
    ])
    t_load = time.perf_counter()
    load = Op("load", 0.0)
    dataset = None
    try:
        dataset = mr.io.read_dataset(data)
        steps = sum(sub.step_count for sub in dataset.episodes)
    except mr.errors.MultirateError as exc:
        load.ok, load.detail = False, f"{type(exc).__name__}: {exc}"
    load.seconds = time.perf_counter() - t_load
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    del dataset
    if load.ok and steps != wl.steps:
        load.ok, load.detail = False, f"read_dataset gave {steps} steps, expected {wl.steps}"
    ops["load"] = load
    return ops, wall, cpu


# ------------------------------------------------------------------ checks


def tree_digest(roots: list[Path], base: Path) -> str:
    """SHA-256 over the relative path, size and bytes of every file under `roots`."""
    h = hashlib.sha256()
    for root in roots:
        for p in sorted(root.rglob("*")):
            if p.is_file():
                data = p.read_bytes()
                h.update(f"{p.relative_to(base).as_posix()}\0{len(data)}\0".encode())
                h.update(data)
    return h.hexdigest()


def _fail(op: Op, detail: str) -> None:
    op.ok, op.detail = False, detail


def _report_problem(wl: Workload, command: str, rep: dict) -> str | None:
    """Why a command's --report disagrees with the workload, or None."""
    if command == "simulate" and rep["count"] != wl.sources:
        return f"simulated {rep['count']} episodes, asked for {wl.sources}"
    if command == "augment" and rep["sub_episodes"] != wl.sources * len(wl.offsets):
        return f"{rep['sub_episodes']} sub-episodes, expected {wl.sources}x{len(wl.offsets)}"
    if command == "validate":
        rows = {r["name"]: r for r in rep["checks"]}
        bad = [r for r in rows.values() if r["status"] != "ok"]
        missing = VALIDATE_CHECKS - rows.keys()
        if bad or missing or "not located" in rows["re-derivation"]["detail"]:
            return f"validate rows not all ok: {bad} missing={sorted(missing)}"
    if command == "stats" and rep["steps"] != wl.steps:
        return f"stats.steps {rep['steps']} != {wl.sources}x{len(wl.offsets)}x{wl.frames}"
    return None


def check_reports(wl: Workload, work: Path, ops: dict[str, Op]) -> None:
    """Fail each command whose --report disagrees with the workload's shape."""
    for command, op in ops.items():
        if command == "load" or not op.ok:
            continue
        try:
            rep = json.loads((work / "reports" / f"{command}.json").read_text())
            problem = _report_problem(wl, command, rep)
        except (OSError, KeyError, ValueError) as exc:
            problem = f"report unreadable: {exc!r}"
        if problem:
            _fail(op, problem)


def reference_mismatch(wl: Workload, data: Path, source_root: Path) -> str | None:
    """Rebuild every steps file from the sources' raw streams with numpy.

    Row k of the sub-episode at offset o is the sample clip(k*R + o, 0, T-1):
    u64 index, follower row, leader row (docs/format.md).
    """
    man = json.loads((data / "manifest.json").read_text())
    ids = man["source_episode_ids"]
    want = [(s, o) for s in ids for o in wl.offsets]
    got = [(e["source_episode_id"], e["offset"]) for e in man["episodes"]]
    if got != want or len(ids) != wl.sources:
        return f"sub-episodes {got[:3]}... are not {want[:3]}..."
    width = 3 * wl.joints
    row = np.dtype([("i", "<u8"), ("obs", "<f8", (width,)), ("act", "<f8", (width,))])
    k = np.arange(wl.frames)
    entries = iter(man["episodes"])
    for sid in ids:
        leader = np.fromfile(source_root / sid / "leader.f64", "<f8").reshape(-1, width)
        follower = np.fromfile(source_root / sid / "follower.f64", "<f8").reshape(-1, width)
        for off in wl.offsets:
            idx = np.clip(k * wl.ratio + off, 0, wl.samples - 1)
            rows = np.empty(wl.frames, row)
            rows["i"], rows["obs"], rows["act"] = idx, follower[idx], leader[idx]
            name = next(entries)["file"]
            if (data / name).read_bytes() != rows.tobytes():
                return f"{name} (source {sid}, offset {off}) differs from the reference rows"
    return None


# ------------------------------------------------------------- per-layer


def layer_metrics(spans: list, wl: Workload, work: Path) -> dict[str, float]:
    agg = spans_mod.aggregate(spans)

    def t(name: str) -> spans_mod.Totals:
        return agg.get(name, spans_mod.Totals())

    data = work / "dataset"
    source_root = work / ("demos" if wl.simulate else "inputs")
    ids = json.loads((data / "manifest.json").read_text())["source_episode_ids"]
    need_sources = sum(spans_mod.payload_bytes(source_root / s) for s in ids)
    need_data = spans_mod.payload_bytes(data)
    sim, aug, rd = t("sim.run_simulation"), t("augment.augment"), t("io.read_dataset")
    validate_reads = spans_mod.count_under(spans, "io.read_episode", "cli.validate")
    return {
        "sim.samples_per_s": sim.items / sim.self_s if sim.items else 0.0,
        "sim.samples": sim.items,
        "augment.augment.self_s": aug.self_s,
        "augment.ns_per_step": aug.incl_s / aug.items * 1e9 if aug.items else 0.0,
        "augment.steps": aug.items,
        "augment.slice_episode.calls": t("augment.slice_episode").calls,
        "augment.slice_episode.self_s": t("augment.slice_episode").self_s,
        "augment.evenness_report.self_s": t("augment.evenness_report").self_s,
        "io.write_episode.self_s": t("io.write_episode").self_s,
        "io.write_episode.bytes": t("io.write_episode").nbytes,
        "io.read_episode.calls": t("io.read_episode").calls,
        "io.read_episode.self_s": t("io.read_episode").self_s,
        "io.write_dataset.self_s": t("io.write_dataset").self_s,
        "io.write_dataset.mb_per_s": t("io.write_dataset").nbytes / t("io.write_dataset").incl_s / 1e6,
        "io.read_dataset.calls": rd.calls,
        "io.read_dataset.self_s": rd.self_s,
        "io.read_dataset.mb_per_s": rd.nbytes / rd.incl_s / 1e6,
        "io.verify_checksums.self_s": t("io.verify_checksums").self_s,
        "io.read_amplification.augment": t("cli.augment").rchar / need_sources,
        "io.read_amplification.validate": t("cli.validate").rchar / (need_data + need_sources),
        "io.read_amplification.stats": t("cli.stats").rchar / need_data,
        "cli.validate.self_s": t("cli.validate").self_s,
        "cli.validate.source_read_ratio": len(ids) / validate_reads if validate_reads else 0.0,
        "cli.stats.self_s": t("cli.stats").self_s,
    }


def bytes_per_step(mr, wl: Workload, data: Path) -> float:
    """tracemalloc-retained bytes of a loaded dataset per aligned step."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dataset = mr.io.read_dataset(data)
        retained = tracemalloc.get_traced_memory()[0] - before
        del dataset
    finally:
        tracemalloc.stop()
    return retained / wl.steps


# ------------------------------------------------------------------- runs


def environment(mr, wl: Workload, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    src = hashlib.sha256()
    for p in sorted((SRC / "multirate").glob("*.py")):
        src.update(p.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "source_sha256": src.hexdigest()[:16],
        "seed": seed,
        "workload": wl.sizes(),
    }


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    digest: str | None = None

    def record(self, ops: list[Op]) -> None:
        for op in ops:
            self.attempted += 1
            if not op.ok:
                self.failed += 1
                print(f"FAILED {op.name}: {op.detail}", file=sys.stderr)


def one_iteration(mr, wl, seed, work, input_digest, tally, reference: bool):
    """Run the flow once, check it and return (ops, wall, cpu); leaves outputs in `work`."""
    # Start every iteration with empty collector generations, as a fresh
    # `multirate` process does, so collections land in the same places.
    gc.collect()
    ops, wall, cpu = run_flow(mr, wl, seed, work)
    check_reports(wl, work, ops)
    source_root = work / ("demos" if wl.simulate else "inputs")
    if reference and ops["augment"].ok:
        problem = reference_mismatch(wl, work / "dataset", source_root)
        if problem:
            _fail(ops["augment"], problem)
    produced = [p for p in (work / "demos", work / "dataset", work / "reports") if p.exists()]
    digest = hashlib.sha256((input_digest + tree_digest(produced, work)).encode()).hexdigest()
    same = Op("digest", 0.0)
    if tally.digest is None:
        tally.digest = digest
    elif digest != tally.digest:
        _fail(same, "artifacts differ from the first iteration with the same seed")
    tally.record([*ops.values(), same])
    return ops, wall, cpu


def _clean(work: Path) -> None:
    for name in ("demos", "dataset", "reports"):
        shutil.rmtree(work / name, ignore_errors=True)


def _median_row(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def measure(mr, wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, loop the flow for `seconds`, print every metric and return the result."""
    tally = Tally()
    tracer = spans_mod.Tracer() if trace else None
    if trace:
        with tracer.installed():
            _, input_digest = set_up(mr, wl, seed, work, repeats=1)
        setup_spans = tracer.take()
    else:
        startup = statistics.median(_startup_s() for _ in range(SETUP_REPEATS))
        gen_s, input_digest = set_up(mr, wl, seed, work, repeats=SETUP_REPEATS)

    untraced, traced_wall, layers = [], [], []
    began = time.perf_counter()
    while True:
        ops, wall, cpu = one_iteration(mr, wl, seed, work, input_digest, tally, not untraced)
        times = {f"{name}_s": op.seconds for name, op in ops.items()}
        steps = wl.steps if ops["load"].ok else 0
        untraced.append(dict(times, wall_s=wall, cpu_s=cpu, steps_per_s=steps / wall))
        _clean(work)
        if trace:
            with tracer.installed():
                ops, wall, _ = one_iteration(mr, wl, seed, work, input_digest, tally, False)
            spans = setup_spans + tracer.take()
            if all(op.ok for op in ops.values()):
                layers.append(layer_metrics(spans, wl, work))
                traced_wall.append(wall)
                if len(layers) == 1:
                    memory = bytes_per_step(mr, wl, work / "dataset")
            _clean(work)
        elapsed = time.perf_counter() - began
        if elapsed * (1 + 1 / len(untraced)) > seconds:
            break

    row = _median_row(untraced)
    row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = dict(END_TO_END, simulate_s="s")
    if trace:
        metrics = _median_row(layers) if layers else {}
        if layers:
            metrics["model.bytes_per_step"] = memory
            metrics["trace.overhead"] = statistics.median(traced_wall) / row["wall_s"]
        reported = dict(PER_LAYER)
    else:
        row["setup_s"] = startup + gen_s
        metrics, reported = row, dict(END_TO_END)
    print(f"iterations: {len(untraced)} untraced, {len(traced_wall)} traced; medians follow")
    print(f"digest: sha256:{tally.digest}")
    print("wall_s per iteration: " + " ".join(f"{u['wall_s']:.3f}" for u in untraced))
    for name, value in row.items():
        print(f"  {name:<34} {value:16.6f} {units[name]}")
    for name, unit in PER_LAYER if trace else ():
        print(f"  {name:<34} {metrics.get(name, float('nan')):16.6f} {unit}")
    print(f"  {'failed_ops':<34} {tally.failed:>9} / {tally.attempted} ops")
    return {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in reported.items() if n in metrics},
    }


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in a fresh process; 1 if one crashed."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    crashed = False
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                total["correct"], crashed = False, True
                continue
            result = json.loads(lines[-1])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total, sort_keys=True))
    return int(crashed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; second seed {SECOND_SEED})")
    parser.add_argument("--seconds", type=int, default=56, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    mr = _load_package()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    wl = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        print("env: " + json.dumps(environment(mr, wl, args.seed), sort_keys=True))
        result = measure(mr, wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
