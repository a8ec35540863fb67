"""Tests of the benchmark itself, at tiny sizes:  python3 -m pytest bench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

mr = run._load_package()

TINY = {
    # 5 demos: seeds 1 and 2 simulate seeds 5-9 and 10-14, so the seed text
    # in the manifests differs in length while the shapes do not
    "readme_pipeline": dict(duration_s=0.1, sources=5),
    "expand_dabi": dict(duration_s=0.2, sources=2, held_out=1),
    "wide_forward": dict(duration_s=0.2, sources=2),
}

COUNTS = ("sim.samples", "augment.steps", "io.write_episode.bytes", "io.read_episode.calls",
          "io.read_dataset.calls", "augment.slice_episode.calls")


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


def measure(tmp_path: Path, name: str, seed: int, trace: bool) -> dict:
    work = tmp_path / f"run-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    return run.measure(mr, tiny(name), seed, 1, trace, work)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_clean_and_reports_every_metric(tmp_path, name):
    result = measure(tmp_path, name, run.DEFAULT_SEED, trace=False)
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] >= 5
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = measure(tmp_path, name, run.DEFAULT_SEED, trace=True)
    assert (traced["correct"], traced["failed"]) == (True, 0)
    assert set(traced["metrics"]) == {n for n, _ in run.PER_LAYER}
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    wl = tiny(name)
    assert layer["augment.steps"] == wl.steps
    assert layer["sim.samples"] == (wl.sources * wl.samples if wl.simulate else 0)
    assert layer["cli.validate.source_read_ratio"] == wl.sources / (wl.sources + wl.held_out)
    assert layer["io.read_amplification.validate"] > 1.0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_second_seed_repeats_counts_and_first_seed_repeats_bytes(tmp_path, name, capsys):
    first = measure(tmp_path, name, run.DEFAULT_SEED, trace=True)
    measure(tmp_path, name, run.DEFAULT_SEED, trace=True)
    second = measure(tmp_path, name, run.SECOND_SEED, trace=True)
    digests = [line for line in capsys.readouterr().out.splitlines() if line.startswith("digest")]
    assert digests[0] == digests[1] != digests[2]
    for key in COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key


def test_flipped_byte_in_steps_file_fails_the_run(tmp_path, monkeypatch):
    augment = mr.cli.cmd_augment

    def augment_then_corrupt(args):
        rc = augment(args)
        path = Path(args.out) / "steps-00000.bin"
        data = bytearray(path.read_bytes())
        data[100] ^= 0x01
        path.write_bytes(bytes(data))
        return rc

    monkeypatch.setattr(mr.cli, "cmd_augment", augment_then_corrupt)
    result = measure(tmp_path, "expand_dabi", run.DEFAULT_SEED, trace=False)
    assert result["failed"] > 0
    assert result["correct"] is False


def test_digest_gate_catches_different_bytes_under_one_seed(tmp_path):
    wl = tiny("readme_pipeline")
    _, inputs = run.set_up(mr, wl, 1, tmp_path, repeats=1)
    tally = run.Tally()
    run.one_iteration(mr, wl, 1, tmp_path, inputs, tally, reference=True)
    run._clean(tmp_path)
    # same inputs, but the simulator seeds differ: the artifacts must not match
    run.one_iteration(mr, wl, 2, tmp_path, inputs, tally, reference=True)
    assert tally.failed == 1


def test_benchmark_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "expand_dabi", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
