import dataclasses
import errno
import importlib.metadata
import json
import os
import runpy
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from multirate import cli, io, sim
from multirate.cli import build_parser, main
from multirate.io import read_dataset, write_dataset, write_episode
from multirate.augment import augment, source_indices
from multirate.model import Method, RobotStream
from multirate.errors import MultirateError, NumericalDivergence, ParseFailure, ValidationFailure
from multirate.sim import default_sim_config, load_sim_config, run_simulation, sim_config_to_dict

from conftest import make_episode

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SIM_ARGS = ["--trajectory", "step", "--count", "2", "--base-seed", "5"]


@pytest.fixture
def small_config(tmp_path):
    cfg = {
        "joints": [{"inertia": 0.01, "viscous_friction": 0.05}] * 2,
        "robot_rate_hz": 1000,
        "frame_rate_hz": 100,
        "duration_s": 0.1,
        "seed": 0,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_simulate_writes_episodes(tmp_path, small_config, capsys):
    out = tmp_path / "eps"
    rc = main(["simulate", "--config", small_config, "--out", str(out)] + SIM_ARGS)
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["step-00005", "step-00006"]
    stdout = capsys.readouterr().out
    assert "step-00005" in stdout and "max_gap" in stdout


def test_simulate_refuses_existing_without_force(tmp_path, small_config, capsys):
    out = tmp_path / "eps"
    assert main(["simulate", "--config", small_config, "--out", str(out)] + SIM_ARGS) == 0
    rc = main(["simulate", "--config", small_config, "--out", str(out)] + SIM_ARGS)
    assert rc == 1
    assert "IoFailure" in capsys.readouterr().err
    rc = main(
        ["simulate", "--config", small_config, "--out", str(out), "--force"] + SIM_ARGS
    )
    assert rc == 0


def test_simulate_rejects_zero_count(tmp_path, small_config):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", small_config, "--out", str(tmp_path / "x"),
              "--trajectory", "step", "--count", "0"])
    assert exc.value.code == 2


def test_main_parses_every_call_afresh_with_one_parser(tmp_path, monkeypatch, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    extras = []
    original = cli._source_candidates

    def recording(dataset_dir, extra, wanted):
        extras.append(list(extra))
        return original(dataset_dir, extra, wanted)

    monkeypatch.setattr(cli, "_source_candidates", recording)
    assert main(["validate", str(out), "--sources", str(root)]) == 0
    assert main(["validate", str(out)]) == 0
    assert extras == [[str(root)], []]
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", str(tmp_path / "x"), "--trajectory", "step", "--count", "0"])
        assert exc.value.code == 2
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser() and build_parser() is not cli._parser()
    # the parser is kept, but each call runs the module's cmd_* of the moment
    monkeypatch.setattr(cli, "cmd_stats", lambda args: 7)
    assert main(["stats", str(out)]) == 7


def test_usage_error_on_unknown_method(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["augment", str(tmp_path), "--method", "nearest", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_simulate_divergence_exits_one_and_writes_nothing(tmp_path, capsys):
    raw = sim_config_to_dict(default_sim_config())
    raw["gains"]["kp"] = 1e7
    cfg = tmp_path / "stiff.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "eps"
    rc = main(["simulate", "--config", str(cfg), "--trajectory", "step", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "NumericalDivergence: leader state magnitude 2.162e+06 exceeds limit 1.000e+06" in err
    assert not out.exists() or list(out.rglob("*")) == []


def _tree(root):
    """Every path under `root`: a file's bytes, None for a directory, as `diff -r` compares them."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def _simulate_sweep(config, out, count, base_seed):
    return main(["simulate", "--config", config, "--trajectory", "pick_sweep", "--out", str(out),
                 "--count", str(count), "--base-seed", str(base_seed)])


def test_simulate_chunks_match_one_batch(tmp_path, small_config, monkeypatch, capsys):
    """Chunks of one seed are what runs of `--count 1`, one per seed, simulate."""
    out = tmp_path / "eps"
    assert _simulate_sweep(small_config, out, 5, 2) == 0
    whole, whole_out = _tree(out), capsys.readouterr().out
    for chunk in (2, 1):
        out.rename(tmp_path / f"before-chunk-{chunk}")
        monkeypatch.setattr(cli, "_SIM_CHUNK", chunk)
        assert _simulate_sweep(small_config, out, 5, 2) == 0
        assert capsys.readouterr().out == whole_out
        assert _tree(out) == whole
    assert sorted(p.name for p in out.iterdir()) == [f"pick_sweep-0000{s}" for s in range(2, 7)]


def _peak_state(config_path, seed):
    """Largest |angle| or |velocity| a seed reaches, which is what the divergence check sees."""
    config = dataclasses.replace(load_sim_config(config_path), seed=seed)
    ep = run_simulation(config, "pick_sweep").episode
    return max(float(np.abs(arm.data[..., :2]).max()) for arm in (ep.leader, ep.follower))


def test_simulate_batch_divergence_writes_seeds_before_it(
    tmp_path, small_config, monkeypatch, capsys
):
    base = 3
    peaks = [_peak_state(small_config, base + i) for i in range(3)]
    assert peaks[0] < peaks[1]
    monkeypatch.setattr(sim, "STATE_LIMIT", (peaks[0] + peaks[1]) / 2)
    with pytest.raises(NumericalDivergence) as alone:
        run_simulation(dataclasses.replace(load_sim_config(small_config), seed=base + 1),
                       "pick_sweep")
    out = tmp_path / "eps"
    assert _simulate_sweep(small_config, out, 3, base) == 1
    batched = capsys.readouterr()
    assert [p.name for p in out.iterdir()] == [f"pick_sweep-{base:05d}"]
    assert f"error: NumericalDivergence: {alone.value}\n" in batched.err
    # one seed per chunk is the per-seed path
    shutil.rmtree(out)
    monkeypatch.setattr(cli, "_SIM_CHUNK", 1)
    assert _simulate_sweep(small_config, out, 3, base) == 1
    assert capsys.readouterr() == batched
    assert [p.name for p in out.iterdir()] == [f"pick_sweep-{base:05d}"]


def test_simulate_batch_where_every_seed_diverges_writes_nothing(
    tmp_path, small_config, monkeypatch, capsys
):
    base = 3
    monkeypatch.setattr(sim, "STATE_LIMIT", min(_peak_state(small_config, base + i)
                                                 for i in range(3)) / 2)
    with pytest.raises(NumericalDivergence) as alone:
        run_simulation(dataclasses.replace(load_sim_config(small_config), seed=base),
                       "pick_sweep")
    out = tmp_path / "eps"
    assert _simulate_sweep(small_config, out, 3, base) == 1
    assert f"error: NumericalDivergence: {alone.value}\n" in capsys.readouterr().err
    assert not out.exists() or list(out.rglob("*")) == []


def _write_episode_tree(tmp_path, n=2, ratio=10):
    eps = [
        make_episode(
            t_len=100, joints=2, ratio=ratio, frame_count=10,
            episode_id=f"ep-{i}", seed=i,
        )
        for i in range(n)
    ]
    root = tmp_path / "episodes"
    for ep in eps:
        write_episode(ep, root / ep.episode_id)
    return root, eps


def test_augment_expands_and_reports(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    rc = main(["augment", str(root), "--method", "dabi", "--out", str(out)])
    assert rc == 0
    assert "2 episodes -> 20 sub-episodes" in capsys.readouterr().out
    ds = read_dataset(out)
    assert ds.episode_count == 20
    assert ds.manifest.method is Method.DABI


def test_augment_accepts_explicit_episode_dirs(tmp_path):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    rc = main([
        "augment", str(root / "ep-0"), str(root / "ep-1"),
        "--method", "downsample", "--out", str(out),
    ])
    assert rc == 0
    assert read_dataset(out).episode_count == 2


def test_augment_mixed_ratio_fails(tmp_path, capsys):
    a = make_episode(t_len=100, joints=2, ratio=10, episode_id="a")
    b = make_episode(t_len=100, joints=2, ratio=5, episode_id="b")
    write_episode(a, tmp_path / "eps" / "a")
    write_episode(b, tmp_path / "eps" / "b")
    rc = main(["augment", str(tmp_path / "eps"), "--method", "forward",
               "--out", str(tmp_path / "ds")])
    assert rc == 1
    assert "MixedRatio" in capsys.readouterr().err


def test_augment_empty_input_fails(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    rc = main(["augment", str(empty), "--method", "dabi", "--out", str(tmp_path / "ds")])
    assert rc == 1


def test_validate_passes_on_fresh_dataset(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    main(["augment", str(root), "--method", "dabi", "--out", str(out)])
    report = tmp_path / "report.json"
    rc = main(["validate", str(out), "--report", str(report)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "re-derivation" in stdout and "coverage" in stdout
    rows = json.loads(report.read_text())["checks"]
    assert all(r["status"] == "ok" for r in rows)
    names = [r["name"] for r in rows]
    assert names == [
        "manifest-parse", "checksums", "read", "offset-window",
        "ordering", "re-derivation", "coverage",
    ]


def test_validate_episode_dir(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path, n=1)
    rc = main(["validate", str(root / "ep-0")])
    assert rc == 0
    assert "stream-invariants" in capsys.readouterr().out


def test_validate_skips_without_sources(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    ds = augment(eps, Method.FORWARD)
    isolated = tmp_path / "elsewhere" / "deep" / "ds"
    write_dataset(ds, isolated)
    rc = main(["validate", str(isolated)])
    assert rc == 0
    assert "skip" in capsys.readouterr().out


def test_validate_finds_sources_via_flag(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    ds = augment(eps, Method.FORWARD)
    isolated = tmp_path / "elsewhere" / "deep" / "ds"
    write_dataset(ds, isolated)
    rc = main(["validate", str(isolated), "--sources", str(root)])
    assert rc == 0
    assert "re-derived 20 sub-episodes" in capsys.readouterr().out


def test_validate_reports_corruption(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    main(["augment", str(root), "--method", "forward", "--out", str(out)])
    payload = out / "steps-00003.bin"
    data = bytearray(payload.read_bytes())
    data[5] ^= 0x10
    payload.write_bytes(bytes(data))
    report = tmp_path / "report.json"
    rc = main(["validate", str(out), "--report", str(report)])
    assert rc == 1
    assert "ChecksumMismatch" in capsys.readouterr().out
    rows = json.loads(report.read_text())["checks"]
    assert any(r["status"] == "fail" for r in rows)


def _tamper_steps(out, index):
    """Flip a bit of one sub-episode's first observation; its crc32 is recomputed to match."""
    name = f"steps-{index:05d}.bin"
    data = bytearray((out / name).read_bytes())
    data[8] ^= 0x40
    (out / name).write_bytes(bytes(data))
    crc = f"{zlib.crc32(bytes(data)) & 0xFFFFFFFF:08x}"
    _rewrite_manifest(out, lambda raw: raw["files"][name].update(crc32=crc))


def _shorten_steps(out, index):
    """Drop the last step of one sub-episode; its size, crc32 and step_count are restamped."""
    name = f"steps-{index:05d}.bin"
    raw = json.loads((out / "manifest.json").read_text())
    entry = raw["episodes"][index]
    data = (out / name).read_bytes()
    data = data[: len(data) // entry["step_count"] * (entry["step_count"] - 1)]
    (out / name).write_bytes(data)
    crc = f"{zlib.crc32(data) & 0xFFFFFFFF:08x}"

    def edit(raw):
        raw["files"][name].update(crc32=crc, bytes=len(data))
        raw["episodes"][index]["step_count"] -= 1

    _rewrite_manifest(out, edit)


def test_validate_reports_tampered_steps(tmp_path, capsys):
    """Corruption that keeps checksums valid is caught by re-derivation."""
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    main(["augment", str(root), "--method", "dabi", "--out", str(out)])
    _tamper_steps(out, 2)
    rc = main(["validate", str(out)])
    assert rc == 1
    assert "re-derivation" in capsys.readouterr().out


def _restamp_word(out, name, at, word):
    """Overwrite the 8 bytes at `at` of one payload; its crc32 is recomputed to match."""
    data = bytearray((out / name).read_bytes())
    data[at:at + 8] = word
    (out / name).write_bytes(bytes(data))
    crc = f"{zlib.crc32(bytes(data)) & 0xFFFFFFFF:08x}"
    _rewrite_manifest(out, lambda raw: raw["files"][name].update(crc32=crc))


def test_a_non_finite_step_value_fails_read_and_stats(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    # 2 joints: a row is the index word, then 6 observation and 6 action values
    _restamp_word(out, "steps-00003.bin", 4 * 104 + 8 + 6 * 8 + 2 * 8, struct.pack("<d", np.nan))
    rc, rows = _validate_rows(out, tmp_path)
    assert rc == 1
    assert rows[2] == ("read", "fail", "ValidationFailure: step vectors contain non-finite values")
    capsys.readouterr()
    assert main(["stats", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: ValidationFailure: step vectors contain non-finite values\n"
    )


def test_an_index_word_that_reads_as_nan_is_read_and_fails_the_source_rows(tmp_path, capsys):
    """The second word, 2**64 - 4, is also raw index -4 wrapped to a u64: it stays clamped."""
    root, eps = _write_episode_tree(tmp_path)
    for name, offset, word in [("steps-00003.bin", -1, 0x7FF8000000000000),
                               ("steps-00000.bin", -4, 2**64 - 4)]:
        out = tmp_path / f"ds{offset}"
        assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
        _restamp_word(out, name, 0, struct.pack("<Q", word))
        rc, rows = _validate_rows(out, tmp_path)
        assert rc == 1
        assert rows[2] == ("read", "ok", "20 sub-episodes from 2 sources")
        assert rows[5:] == [
            ("re-derivation", "fail",
             f"MultirateError: source ep-0 offset {offset}: stored steps differ from re-derived steps"),
            ("coverage", "fail",
             f"ProvenanceMismatch: source_index {word} outside episode of length 100"),
        ]
        # frame 0 at offsets -4..-1 is clamped in each source, whatever word is stored for it
        capsys.readouterr()
        assert main(["stats", str(out)]) == 0
        assert "\nclamped_steps: 8\n" in capsys.readouterr().out


def test_validate_reads_only_source_episodes(tmp_path, monkeypatch, capsys):
    root, eps = _write_episode_tree(tmp_path)
    held_out = make_episode(t_len=100, joints=2, ratio=10, episode_id="held-out", seed=7)
    write_episode(held_out, root / held_out.episode_id)
    out = tmp_path / "ds"
    assert main(["augment", str(root / "ep-0"), str(root / "ep-1"),
                 "--method", "dabi", "--out", str(out)]) == 0
    read = []
    original = cli.read_episode

    def counting(path, **kwargs):
        read.append(Path(path).name)
        return original(path, **kwargs)

    monkeypatch.setattr(cli, "read_episode", counting)
    assert main(["validate", str(out)]) == 0
    assert sorted(read) == ["ep-0", "ep-1"]
    assert "re-derived 20 sub-episodes from 2 sources" in capsys.readouterr().out


def test_validate_reads_each_payload_once(tmp_path, monkeypatch, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    reads = []
    original = io._read_payload

    def counting(directory, name):
        reads.append(directory / name)
        return original(directory, name)

    monkeypatch.setattr(io, "_read_payload", counting)

    def payloads(directory):
        return sorted(directory / name for name in json.loads(
            (directory / "manifest.json").read_text())["files"])

    assert main(["validate", str(out)]) == 0
    assert sorted(reads) == sorted(
        payloads(out) + payloads(root / "ep-0") + payloads(root / "ep-1")
    )
    reads.clear()
    assert main(["validate", str(root / "ep-0")]) == 0
    assert sorted(reads) == payloads(root / "ep-0")


@pytest.mark.parametrize("command", [
    "validate {tmp}/ds", "validate {tmp}/episodes/ep-0", "stats {tmp}/ds",
    "stats {tmp}/episodes/ep-0", "augment {tmp}/episodes --method dabi --out {tmp}/ds2",
])
def test_each_manifest_is_read_at_most_once(tmp_path, monkeypatch, capsys, command):
    root, eps = _write_episode_tree(tmp_path)
    assert main(["augment", str(root), "--method", "dabi", "--out", str(tmp_path / "ds")]) == 0
    reads = []
    original = Path.read_text

    def counting(self, *args, **kwargs):
        if self.name == "manifest.json":
            reads.append(self.parent.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    assert main(command.format(tmp=tmp_path).split()) == 0
    assert reads and sorted(reads) == sorted(set(reads))


def test_validate_reads_each_source_manifest_once(tmp_path, monkeypatch, capsys):
    """--sources naming a sibling of the dataset finds each episode by two spellings."""
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    reads = []
    original = Path.read_text

    def counting(self, *args, **kwargs):
        if self.name == "manifest.json":
            reads.append(self.parent.resolve())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    monkeypatch.chdir(tmp_path)
    assert main(["validate", "ds", "--sources", "episodes"]) == 0
    assert "re-derived 20 sub-episodes from 2 sources" in capsys.readouterr().out
    assert sorted(reads) == sorted(set(reads))
    assert {(root / "ep-0").resolve(), (root / "ep-1").resolve()} <= set(reads)


def _set_manifest_field(directory, field, key, value):
    raw = json.loads((directory / "manifest.json").read_text())
    if key is None:
        raw[field] = value
    else:
        raw[field][key] = value
    (directory / "manifest.json").write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("field,key,value", [
    ("meta", None, ["task", "hold"]),
    ("files", "leader.f64", "deadbeef"),
])
def test_wrong_shape_manifest_is_a_parse_failure(tmp_path, capsys, field, key, value):
    root, eps = _write_episode_tree(tmp_path, n=1)
    ep_dir = root / "ep-0"
    _set_manifest_field(ep_dir, field, key, value)
    assert main(["stats", str(ep_dir)]) == 1
    err = capsys.readouterr().err
    assert "error: ParseFailure: " in err and "Traceback" not in err
    assert main(["validate", str(ep_dir)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_simulate_config_of_wrong_shape_is_a_parse_failure(tmp_path, capsys):
    raw = sim_config_to_dict(default_sim_config())
    raw["gains"] = []
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    rc = main(["simulate", "--config", str(cfg), "--trajectory", "hold",
               "--out", str(tmp_path / "eps")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: ParseFailure: bad simulation config" in err and "Traceback" not in err


def test_simulate_config_with_a_camera_that_is_not_a_string_fails_cleanly(tmp_path, capsys):
    raw = sim_config_to_dict(default_sim_config())
    raw.update(cameras=["overhead", 5], duration_s=0.02)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    rc = main(["simulate", "--config", str(cfg), "--trajectory", "hold",
               "--out", str(tmp_path / "eps")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: ValidationFailure: camera_id 5 must be a non-empty name without path parts\n"
    )


def test_validate_missing_manifest(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["validate", str(empty)])
    assert rc == 1


def test_stats_dataset(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    main(["augment", str(root), "--method", "dabi", "--out", str(out)])
    report = tmp_path / "stats.json"
    rc = main(["stats", str(out), "--report", str(report)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "method: dabi" in stdout
    assert "offset -4: 2 sub-episode(s)" in stdout
    assert "offset 5: 2 sub-episode(s)" in stdout
    stats = json.loads(report.read_text())
    assert stats["sub_episodes"] == 20
    assert stats["clamped_steps"] == 8  # offsets -4..-1 clamp at frame 0, per source
    assert set(stats["offsets"]) == {str(o) for o in range(-4, 6)}
    # every stored channel is summarized per joint
    for channels in stats["observed"].values():
        assert set(channels) == {"angle", "velocity", "torque"}
        for s in channels.values():
            assert s["min"] <= s["mean"] <= s["max"]
    assert "joint0 velocity: min=" in stdout
    assert "joint1 torque: min=" in stdout
    assert str(tmp_path) not in report.read_text()


def _reference_dataset_stats(ds):
    """_dataset_stats as a loop: one source_indices call per sub-episode, 1-d columns."""
    offsets, clamped = {}, 0
    for sub in ds.episodes:
        key = str(sub.provenance.offset)
        offsets[key] = offsets.get(key, 0) + 1
        raw, _ = source_indices((sub.provenance.offset,), ds.manifest.ratio, sub.step_count, 1)
        clamped += int(np.count_nonzero(sub.source_index.astype(np.int64) != raw[0]))
    joints = ds.episodes[0].joints
    obs = np.concatenate([sub.observation for sub in ds.episodes]).reshape(-1, joints, 3)
    return {
        "command": "stats",
        "kind": "dataset",
        "method": ds.manifest.method.value,
        "ratio": ds.manifest.ratio,
        "sources": len(ds.manifest.source_episode_ids),
        "sub_episodes": ds.episode_count,
        "steps": len(obs),
        "joints": joints,
        "clamped_steps": clamped,
        "offsets": offsets,
        "observed": _reference_channel_summary(obs),
    }


def _reference_channel_summary(data):
    return {
        f"joint{j}": {
            name: {
                "min": float(data[:, j, c].min()),
                "max": float(data[:, j, c].max()),
                "mean": float(data[:, j, c].mean()),
            }
            for c, name in enumerate(("angle", "velocity", "torque"))
        }
        for j in range(data.shape[1])
    }


@pytest.mark.parametrize("method", list(Method))
def test_dataset_stats_match_the_per_sub_episode_loop(tmp_path, method):
    # sources of 30 and 21 frames, so sub-episodes differ in length
    eps = [
        make_episode(t_len=300, joints=3, ratio=10, frame_count=30, episode_id="long", seed=1),
        make_episode(t_len=205, joints=3, ratio=10, frame_count=21, episode_id="short", seed=2),
    ]
    ds = augment(eps, method)
    reader = io.DatasetReader(write_dataset(ds, tmp_path / "ds"))
    got, want = cli._dataset_stats(reader), _reference_dataset_stats(ds)
    assert got == want and repr(got) == repr(want)  # repr tells floats apart bit for bit
    leader = eps[0].leader.data * 1e6 + 1.0  # magnitudes where summation order shows
    assert repr(cli._channel_summary(leader)) == repr(_reference_channel_summary(leader))


def _seven_frame_dataset(tmp_path):
    """A dabi dataset of 2 sources of 7 frames and 2 joints: 20 payloads of 7 rows of 104 bytes."""
    root = tmp_path / "episodes"
    for i in range(2):  # 7 steps of 2 joints are 728 bytes, as are 13 steps of 1 joint
        ep = make_episode(t_len=70, joints=2, ratio=10, frame_count=7, episode_id=f"ep-{i}", seed=i)
        write_episode(ep, root / ep.episode_id)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    return out


def test_stats_of_mixed_joint_counts_is_a_validation_failure(tmp_path, capsys):
    """A manifest edit that keeps every payload's size and crc32 gives entry 3 one joint."""
    out = _seven_frame_dataset(tmp_path)
    _rewrite_manifest(out, lambda raw: raw["episodes"][3].update(joints=1, step_count=13))
    capsys.readouterr()
    assert main(["stats", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: ValidationFailure: source ep-0 offset -1: 1 joints, "
        "but the first sub-episode has 2\n"
    )
    rc, rows = _validate_rows(out, tmp_path)
    assert rc == 1
    assert rows[2:] == [("read", "fail", err[len("error: "):].rstrip("\n"))]


def _flip_byte(out, name):
    """Flip a bit of one payload, leaving its stamps; returns the crc32 message as a template."""
    data = bytearray((out / name).read_bytes())
    data[20] ^= 0x01
    (out / name).write_bytes(bytes(data))
    declared = json.loads((out / "manifest.json").read_text())["files"][name]["crc32"]
    crc = f"{zlib.crc32(bytes(data)) & 0xFFFFFFFF:08x}"
    return f"ChecksumMismatch: {{ds}}/{name}: crc32 {crc} != declared {declared}"


def _nan_in_entry_5_and_one_joint_in_entry_3(out):
    _rewrite_manifest(out, lambda raw: raw["episodes"][3].update(joints=1, step_count=13))
    _restamp_word(out, "steps-00005.bin", 8, struct.pack("<d", np.nan))
    return "read", "ValidationFailure: step vectors contain non-finite values"


def _flipped_payload_and_edited_step_count(out):
    message = _flip_byte(out, "steps-00007.bin")
    _rewrite_manifest(out, lambda raw: raw["episodes"][2].update(step_count=6))
    return "checksums", message


def _damaged_payload_after_a_missing_one(out):
    _flip_byte(out, "steps-00009.bin")
    (out / "steps-00002.bin").unlink()
    return "checksums", "ValidationFailure: {ds}: declared file steps-00002.bin is missing"


def _unreferenced_payload_with_a_wrong_crc(out):
    (out / "zz-extra.bin").write_bytes(b"extra")

    def edit(raw):
        raw["files"]["zz-extra.bin"] = {"bytes": 5, "crc32": "00000000"}
        raw["episodes"][0]["step_count"] = 8

    _rewrite_manifest(out, edit)
    crc = f"{zlib.crc32(b'extra') & 0xFFFFFFFF:08x}"
    return "checksums", f"ChecksumMismatch: {{ds}}/zz-extra.bin: crc32 {crc} != declared 00000000"


def _late_entry_declaring_more_steps_than_memory_holds(out):
    _rewrite_manifest(out, lambda raw: raw["episodes"][15].update(step_count=10**15))
    return "read", (f"ValidationFailure: {{ds}}/steps-00015.bin: 728 bytes, manifest implies "
                    f"{10**15 * 104} ({10**15} steps of 104 bytes)")


def _last_entry_declaring_more_steps_than_an_array_holds(out):
    _rewrite_manifest(out, lambda raw: raw["episodes"][19].update(step_count=10**18))
    return "read", (f"ValidationFailure: {{ds}}/steps-00019.bin: 728 bytes, manifest implies "
                    f"{10**18 * 104} ({10**18} steps of 104 bytes)")


def _two_entries_whose_steps_sum_past_int64(out):
    _rewrite_manifest(out, lambda raw: [e.update(step_count=2**62) for e in raw["episodes"][18:]])
    return "read", (f"ValidationFailure: {{ds}}/steps-00018.bin: 728 bytes, manifest implies "
                    f"{2**62 * 104} ({2**62} steps of 104 bytes)")


def _entry_declaring_steps_past_uint64(out):
    _rewrite_manifest(out, lambda raw: raw["episodes"][12].update(step_count=10**19))
    return "read", (f"ValidationFailure: {{ds}}/steps-00012.bin: 728 bytes, manifest implies "
                    f"{10**19 * 104} ({10**19} steps of 104 bytes)")


@pytest.mark.parametrize("damage", [
    _nan_in_entry_5_and_one_joint_in_entry_3,
    _flipped_payload_and_edited_step_count,
    _damaged_payload_after_a_missing_one,
    _unreferenced_payload_with_a_wrong_crc,
    _late_entry_declaring_more_steps_than_memory_holds,
    _last_entry_declaring_more_steps_than_an_array_holds,
    _two_entries_whose_steps_sum_past_int64,
    _entry_declaring_steps_past_uint64,
])
def test_the_first_failure_by_precedence_is_the_one_reported(tmp_path, capsys, damage):
    """A declared file's defect (first by name) before the manifest's, an entry's before the
    dataset's; validate prints no row after the failed one, stats its message alone."""
    out = _seven_frame_dataset(tmp_path)
    row, message = damage(out)
    rc, rows = _validate_rows(out, tmp_path)
    assert rc == 1
    files = len(json.loads((out / "manifest.json").read_text())["files"])
    tail = [("checksums", "fail", message.format(ds="ds"))] if row == "checksums" else [
        ("checksums", "ok", f"{files} files"),
        ("read", "fail", message.format(ds="ds")),
    ]
    assert rows == [("manifest-parse", "ok", "kind=dataset method=dabi"), *tail]
    capsys.readouterr()
    assert main(["stats", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(ds=out)}\n")


def test_stats_raises_its_allocation_error_when_the_dataset_is_sound(tmp_path, monkeypatch):
    """Every declared step is there but the columns cannot be allocated: once the reader's
    pass has found nothing wrong, the allocation's own error is raised."""
    out = _seven_frame_dataset(tmp_path)
    finished = []

    class Reader(io.DatasetReader):
        def __iter__(self):
            yield from super().__iter__()
            finished.append(True)

    def empty(*args, **kwargs):
        raise MemoryError("cannot allocate the observation columns")

    monkeypatch.setattr(cli, "DatasetReader", Reader)
    monkeypatch.setattr(cli.np, "empty", empty)
    with pytest.raises(MemoryError, match="cannot allocate the observation columns"):
        main(["stats", str(out)])
    assert finished == [True]


def test_stats_episode(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path, n=1)
    report = tmp_path / "ep-stats.json"
    rc = main(["stats", str(root / "ep-0"), "--report", str(report)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "kind: episode" in stdout
    assert "ratio: 10" in stdout
    assert "leader joint0 angle: min=" in stdout
    assert "follower joint0 torque: min=" in stdout
    stats = json.loads(report.read_text())
    ep = eps[0]
    want = float(ep.follower.data[:, 1, 1].max())
    assert stats["follower"]["joint1"]["velocity"]["max"] == pytest.approx(want)


@pytest.mark.parametrize("command", ["simulate", "augment", "validate", "validate-missing", "stats"])
def test_unwritable_report_is_an_io_failure(tmp_path, small_config, capsys, command):
    root, eps = _write_episode_tree(tmp_path, n=1)
    args = {
        "simulate": ["simulate", "--config", small_config, "--out", str(tmp_path / "s")] + SIM_ARGS,
        "augment": ["augment", str(root), "--method", "dabi", "--out", str(tmp_path / "ds")],
        "validate": ["validate", str(root / "ep-0")],
        "validate-missing": ["validate", str(tmp_path / "missing")],
        "stats": ["stats", str(root / "ep-0")],
    }[command]
    assert main(args + ["--report", str(tmp_path / "no-such-dir" / "report.json")]) == 1
    assert capsys.readouterr().err.startswith("error: IoFailure: cannot write report ")


def test_validate_report_is_the_same_wherever_the_artifact_sits(tmp_path, monkeypatch, capsys):
    root, eps = _write_episode_tree(tmp_path)
    here = tmp_path / "here" / "ds"
    main(["augment", str(root), "--method", "dabi", "--out", str(here)])
    payload = here / "steps-00001.bin"
    data = bytearray(payload.read_bytes())
    data[5] ^= 0x10
    payload.write_bytes(bytes(data))
    shutil.copytree(here, tmp_path / "there" / "nested" / "ds")
    monkeypatch.chdir(tmp_path / "there")
    assert main(["validate", str(here), "--report", str(tmp_path / "abs.json")]) == 1
    assert main(["validate", "nested/ds", "--report", str(tmp_path / "rel.json")]) == 1
    report = (tmp_path / "abs.json").read_text()
    assert report == (tmp_path / "rel.json").read_text()
    assert "ChecksumMismatch: ds/steps-00001.bin: crc32 " in report
    assert str(tmp_path) not in report and "nested" not in report


def test_error_exit_is_one(tmp_path, capsys):
    rc = main(["stats", str(tmp_path / "missing")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _declared_scripts() -> dict[str, str]:
    """The ``[project.scripts]`` table of the checkout's ``pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def _installed_distribution() -> importlib.metadata.Distribution | None:
    try:
        return importlib.metadata.distribution("multirate")
    except importlib.metadata.PackageNotFoundError:
        return None


def test_console_entrypoint_is_wired():
    # The declaration is checked rather than installed metadata, so the test
    # also runs from a source checkout where nothing is installed.
    scripts = _declared_scripts()
    assert scripts.get("multirate") == "multirate.cli:main"
    ep = importlib.metadata.EntryPoint(
        name="multirate", value=scripts["multirate"], group="console_scripts"
    )
    assert ep.load() is main
    assert build_parser().prog == "multirate"


@pytest.mark.skipif(
    _installed_distribution() is None, reason="no installed `multirate` distribution"
)
def test_installed_console_entrypoint_matches_declaration():
    # Read the distribution's own entry points, not the global view, where
    # another package could also provide a `multirate` script.
    dist = importlib.metadata.distribution("multirate")
    installed = {e.name: e.value for e in dist.entry_points if e.group == "console_scripts"}
    assert installed == _declared_scripts()


def test_python_dash_m_multirate_runs_the_command_line(tmp_path, monkeypatch, capsys):
    # `python -m multirate` in this process: the package's __main__ is the one module entry
    root, eps = _write_episode_tree(tmp_path)
    ds = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(ds)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["multirate", "stats", str(ds)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("multirate", run_name="__main__", alter_sys=True)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert "method: dabi" in out and err == ""


def _validate_rows(out, tmp_path, *extra):
    report = tmp_path / "report.json"
    rc = main(["validate", str(out), "--report", str(report), *extra])
    return rc, [
        (r["name"], r["status"], r["detail"]) for r in json.loads(report.read_text())["checks"]
    ]


def _rewrite_manifest(out, edit):
    """Edit a dataset manifest in place; payloads and their crc32 stay valid."""
    raw = json.loads((out / "manifest.json").read_text())
    edit(raw)
    (out / "manifest.json").write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")


def test_validate_reports_offset_window_failure(tmp_path, capsys):
    """A source whose offsets are not the method's window fails the reader, so `read` fails."""
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    _rewrite_manifest(out, lambda raw: raw["episodes"][3].update(offset=7))
    rc, rows = _validate_rows(out, tmp_path)
    assert rc == 1
    window = "[-4, -3, -2, 0, 1, 2, 3, 4, 5, 7]"
    expected = "[-4, -3, -2, -1, 0, 1, 2, 3, 4, 5]"
    assert rows == [
        ("manifest-parse", "ok", "kind=dataset method=dabi"),
        ("checksums", "ok", "20 files"),
        ("read", "fail",
         f"ValidationFailure: source ep-0: offsets {window} != expected {expected}"),
    ]
    assert capsys.readouterr().out.endswith("1 check(s) failed\n")


def test_validate_reports_ordering_failure(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "forward", "--out", str(out)]) == 0

    def swap(raw):  # last sub-episode of ep-0 and first of ep-1 trade places
        entries = raw["episodes"]
        entries[9], entries[10] = entries[10], entries[9]

    _rewrite_manifest(out, swap)
    rc, rows = _validate_rows(out, tmp_path)
    assert rc == 1
    assert rows == [
        ("manifest-parse", "ok", "kind=dataset method=forward"),
        ("checksums", "ok", "20 files"),
        ("read", "ok", "20 sub-episodes from 2 sources"),
        ("offset-window", "ok", "window 0..9 per source"),
        ("ordering", "fail",
         "MultirateError: sub-episodes are not source-major, offset-ascending"),
        ("re-derivation", "ok", "re-derived 20 sub-episodes from 2 sources"),
        ("coverage", "ok", "coverage exact for 2 sources"),
    ]
    assert capsys.readouterr().out.endswith("1 check(s) failed\n")


def test_validate_report_of_clean_episode(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path, n=1)
    rc, rows = _validate_rows(root / "ep-0", tmp_path)
    assert rc == 0
    assert rows == [
        ("manifest-parse", "ok", "kind=episode id=ep-0"),
        ("checksums", "ok", "3 files"),
        ("stream-invariants", "ok", "samples=100 frames=10 ratio=10 joints=2"),
    ]
    assert (tmp_path / "report.json").read_text() == json.dumps(
        {"command": "validate", "checks": [
            {"name": n, "status": s, "detail": d} for n, s, d in rows
        ]},
        indent=2, sort_keys=True,
    ) + "\n"


def test_validate_rederivation_catches_relabelled_cameras(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    _rewrite_manifest(out, lambda raw: raw["episodes"][13].update(cameras=["other"]))
    rc, rows = _validate_rows(out, tmp_path)
    assert rc == 1
    assert rows == [
        ("manifest-parse", "ok", "kind=dataset method=dabi"),
        ("checksums", "ok", "20 files"),
        ("read", "ok", "20 sub-episodes from 2 sources"),
        ("offset-window", "ok", "window -4..5 per source"),
        ("ordering", "ok", "source-major, offsets ascending"),
        ("re-derivation", "fail",
         "MultirateError: source ep-1 offset -1: stored steps differ from re-derived steps"),
        ("coverage", "ok", "coverage exact for 2 sources"),
    ]


@pytest.mark.parametrize("tampered, named", [
    (((_tamper_steps, 7), (_tamper_steps, 2)), "ep-0 offset -2"),
    (((_tamper_steps, 16), (_tamper_steps, 7)), "ep-0 offset 3"),
    (((_tamper_steps, 16), (_shorten_steps, 4)), "ep-0 offset 0"),
])
def test_validate_rederivation_names_the_first_bad_sub_episode(tmp_path, capsys, tampered, named):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    for damage, index in tampered:
        damage(out, index)
    rc, rows = _validate_rows(out, tmp_path)
    assert rc == 1
    assert ("re-derivation", "fail",
            f"MultirateError: source {named}: stored steps differ from re-derived steps") in rows
    failed = [name for name, status, _ in rows if status == "fail"]
    if any(damage is _shorten_steps for damage, _ in tampered):
        # a short sub-episode also no longer covers its source
        assert ("coverage", "fail", "ProvenanceMismatch: sub-episode at offset 0 has 9 steps, "
                "episode has 10 frames") in rows
        assert failed == ["re-derivation", "coverage"]
    else:
        assert failed == ["re-derivation"]


def test_validate_source_without_sub_episodes(tmp_path, capsys):
    """ep-1's slots all taken by ep-0: the readers refuse ep-0's window, held twice."""
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0

    def relabel(raw):
        for entry in raw["episodes"][10:]:
            entry["source_episode_id"] = "ep-0"

    _rewrite_manifest(out, relabel)
    doubled = ", ".join(f"{off}, {off}" for off in range(-4, 6))
    message = (
        f"source ep-0: offsets [{doubled}] != expected [-4, -3, -2, -1, 0, 1, 2, 3, 4, 5]"
    )
    with pytest.raises(ValidationFailure) as exc:
        read_dataset(out)
    assert str(exc.value) == message
    rc, rows = _validate_rows(out, tmp_path)
    assert rc == 1
    assert rows[2:] == [("read", "fail", f"ValidationFailure: {message}")]


CLEAN_DABI_ROWS = [
    ("manifest-parse", "ok", "kind=dataset method=dabi"),
    ("checksums", "ok", "20 files"),
    ("read", "ok", "20 sub-episodes from 2 sources"),
    ("offset-window", "ok", "window -4..5 per source"),
    ("ordering", "ok", "source-major, offsets ascending"),
    ("re-derivation", "ok", "re-derived 20 sub-episodes from 2 sources"),
    ("coverage", "ok", "coverage exact for 2 sources"),
]


def test_validate_falls_through_a_damaged_nearer_source_to_a_whole_one(
    tmp_path, monkeypatch, capsys
):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    # a copy of ep-0 under --sources, searched before the episodes beside the dataset
    copy = tmp_path / "copies" / "ep-0"
    shutil.copytree(root / "ep-0", copy)
    data = bytearray((copy / "follower.f64").read_bytes())
    data[0] ^= 1
    (copy / "follower.f64").write_bytes(bytes(data))
    tried = []
    read_episode = cli.read_episode
    monkeypatch.setattr(cli, "read_episode", lambda path, **kw: (
        tried.append(Path(path)), read_episode(path, **kw))[1])
    rc, rows = _validate_rows(out, tmp_path, "--sources", str(copy.parent))
    assert (rc, rows) == (0, CLEAN_DABI_ROWS)
    assert tried == [copy, root / "ep-0", root / "ep-1"]


def test_validate_skips_a_directory_beside_the_dataset_whose_manifest_is_not_json(
    tmp_path, capsys
):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    (tmp_path / "junk").mkdir()
    (tmp_path / "junk" / "manifest.json").write_text("{not json")
    assert _validate_rows(out, tmp_path) == (0, CLEAN_DABI_ROWS)


def test_validate_sources_naming_a_regular_file_adds_no_candidate(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    (tmp_path / "notes.txt").write_text("not a directory\n")
    capsys.readouterr()
    assert _validate_rows(out, tmp_path, "--sources", str(tmp_path / "notes.txt")) == (
        0, CLEAN_DABI_ROWS
    )
    assert "Traceback" not in capsys.readouterr().err


def test_validate_accepts_the_manifest_path(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["validate", str(out), "--report", str(tmp_path / "dir.json")]) == 0
    by_dir = capsys.readouterr().out
    assert main(["validate", str(out / "manifest.json"),
                 "--report", str(tmp_path / "manifest.json")]) == 0
    assert capsys.readouterr().out == by_dir
    assert (tmp_path / "manifest.json").read_bytes() == (tmp_path / "dir.json").read_bytes()


def test_simulate_config_that_is_not_utf8_is_a_parse_failure(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(b'{"joints": [\xff]}')
    with pytest.raises(ParseFailure):
        load_sim_config(cfg)
    rc = main(["simulate", "--config", str(cfg), "--trajectory", "hold",
               "--out", str(tmp_path / "eps")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParseFailure: config ") and "Traceback" not in err


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("inputs, out", [
    (["episodes"], "episodes"),  # the listed directory
    (["episodes/ep-0", "episodes/ep-1"], "episodes/ep-0"),  # an episode named directly
    (["episodes"], "episodes/ep-1"),  # an episode found by listing
    (["episodes/ep-0", "episodes/ep-1"], "episodes/.."),  # a directory above the inputs
])
def test_augment_force_refuses_an_out_that_holds_an_input(tmp_path, monkeypatch, capsys,
                                                          inputs, out):
    _write_episode_tree(tmp_path)
    before = _tree_bytes(tmp_path)
    reads = []
    original = io._read_payload

    def counting(directory, name):
        reads.append(name)
        return original(directory, name)

    monkeypatch.setattr(io, "_read_payload", counting)
    rc = main(["augment", *(str(tmp_path / p) for p in inputs), "--method", "dabi",
               "--out", str(tmp_path / out), "--force"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: MultirateError: --out {tmp_path / out} would "
                                   "overwrite input episode ")
    assert reads == [] and _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("staging", ["ds.tmp", "ds.old.tmp"])
@pytest.mark.parametrize("force", [False, True])
def test_augment_refuses_an_out_whose_staging_directory_holds_an_input(tmp_path, capsys,
                                                                       staging, force):
    """A write deletes a stale `<out>.tmp` or `<out>.old.tmp`, so an input there is refused."""
    ep = make_episode(t_len=100, joints=2, ratio=10)
    write_episode(ep, tmp_path / staging / ep.episode_id)
    before = _tree_bytes(tmp_path)
    rc = main(["augment", str(tmp_path / staging / ep.episode_id), "--method", "dabi",
               "--out", str(tmp_path / "ds")] + ["--force"] * force)
    assert rc == 1
    assert capsys.readouterr().err == (f"error: MultirateError: --out {tmp_path / 'ds'} would "
                                       f"overwrite input episode {tmp_path / staging / 'ep-0'}\n")
    assert _tree_bytes(tmp_path) == before


def test_augment_force_beside_the_episodes_overwrites_the_dataset(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    args = ["augment", str(root), "--method", "dabi", "--out", str(root / "ds"), "--force"]
    assert main(args) == 0
    assert main(args[:-1]) == 1  # now the dataset is there: only --force replaces it
    assert main(args) == 0
    assert read_dataset(root / "ds") == augment(eps, Method.DABI)
    assert sorted(p.name for p in root.iterdir()) == ["ds", "ep-0", "ep-1"]


@pytest.mark.parametrize("method", list(Method))
def test_cli_augment_writes_the_bytes_of_the_library_path(tmp_path, method):
    root, eps = _write_episode_tree(tmp_path, n=3)
    assert main(["augment", str(root), "--method", method.value,
                 "--out", str(tmp_path / "cli")]) == 0
    write_dataset(augment(eps, method), tmp_path / "lib")
    assert _tree_bytes(tmp_path / "cli") == _tree_bytes(tmp_path / "lib")


@pytest.mark.parametrize("case", ["mixed-ratio", "duplicate-ids", "mixed-joints"])
def test_cli_augment_refuses_a_batch_with_the_library_message(tmp_path, capsys, case):
    a = make_episode(t_len=100, joints=2, ratio=10, episode_id="a")
    b = {
        "mixed-ratio": make_episode(t_len=100, joints=2, ratio=5, episode_id="b"),
        "duplicate-ids": a,
        "mixed-joints": make_episode(t_len=100, joints=3, ratio=10, episode_id="b"),
    }[case]
    for ep in {ep.episode_id: ep for ep in (a, b)}.values():
        write_episode(ep, tmp_path / "eps" / ep.episode_id)
    with pytest.raises(MultirateError) as lib:
        augment([a, b], Method.DABI)
    inputs = [str(tmp_path / "eps" / ep.episode_id) for ep in (a, b)]
    assert main(["augment", *inputs, "--method", "dabi", "--out", str(tmp_path / "ds")]) == 1
    assert capsys.readouterr().err == f"error: {type(lib.value).__name__}: {lib.value}\n"
    assert not (tmp_path / "ds").exists()


def _damage_follower(episode_dir):
    """Flip one byte of the follower payload; its crc32 is left as written."""
    path = episode_dir / "follower.f64"
    data = bytearray(path.read_bytes())
    data[0] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("case", ["damaged-then-mixed", "exists", "locked", "force"])
def test_augment_reports_the_first_failure_in_its_order(tmp_path, capsys, case):
    """The output's lock and existence come first, then each source in order, then the batch.

    Whatever fails, one line goes to stderr and nothing is published: a
    dataset already at --out is left byte for byte, and no staging
    directory or lock of this run is left behind.
    """
    eps, ds = tmp_path / "eps", tmp_path / "ds"
    for i, ratio in enumerate((10, 5 if case == "damaged-then-mixed" else 10)):
        write_episode(make_episode(t_len=100, joints=2, ratio=ratio, episode_id=f"ep-{i}",
                                   seed=i), eps / f"ep-{i}")
    args = ["augment", str(eps), "--method", "dabi", "--out", str(ds)]
    if case in ("exists", "force"):
        assert main(args) == 0
    if case == "locked":
        (tmp_path / "ds.lock").touch()  # another writer's
    before = _tree_bytes(tmp_path)
    # the first source is damaged, but for --force, whose last source is
    _damage_follower(eps / ("ep-1" if case == "force" else "ep-0"))
    capsys.readouterr()
    assert main(args + ["--force"] * (case == "force")) == 1
    err = capsys.readouterr().err
    first = {
        "damaged-then-mixed": f"error: ChecksumMismatch: {eps / 'ep-0' / 'follower.f64'}: crc32 ",
        "exists": f"error: IoFailure: {ds} already exists (pass overwrite to replace it)\n",
        "locked": f"error: IoFailure: {ds} is locked by another writer ",
        "force": f"error: ChecksumMismatch: {eps / 'ep-1' / 'follower.f64'}: crc32 ",
    }[case]
    assert err.startswith(first) and err.count("\n") == 1
    assert not (tmp_path / "ds.tmp").exists() and not (tmp_path / "ds.old.tmp").exists()
    assert (tmp_path / "ds.lock").exists() == (case == "locked")
    after = _tree_bytes(tmp_path)
    assert {k: v for k, v in after.items() if k.startswith("ds")} == {
        k: v for k, v in before.items() if k.startswith("ds")
    }
    if case not in ("exists", "force"):
        assert not ds.exists()


@pytest.mark.parametrize("leftover", ["ep-0.old.tmp", "ep-0.tmp"])
def test_stale_publish_directories_are_not_taken_for_episodes(tmp_path, capsys, leftover):
    """A killed writer's staging copy of ep-0 sits beside the episodes."""
    root, eps = _write_episode_tree(tmp_path)
    assert main(["augment", str(root), "--method", "dabi", "--out", str(tmp_path / "ds")]) == 0
    clean_rows = _validate_rows(tmp_path / "ds", tmp_path)
    assert clean_rows[0] == 0
    shutil.copytree(root / "ep-0", root / leftover)
    capsys.readouterr()
    assert main(["augment", str(root), "--method", "dabi", "--out", str(tmp_path / "ds2")]) == 0
    assert capsys.readouterr().out.startswith("2 episodes -> 20 sub-episodes")
    assert _tree_bytes(tmp_path / "ds2") == _tree_bytes(tmp_path / "ds")
    assert _validate_rows(tmp_path / "ds", tmp_path) == clean_rows


def test_rederivation_compares_bytes_so_a_negative_zero_fails(tmp_path, capsys):
    """A stored -0.0 where the source holds +0.0 equals it as a value, not as the gathered bytes."""
    ep = make_episode(t_len=100, joints=2, ratio=10, frame_count=10, episode_id="ep-0")
    follower = ep.follower.data.copy()
    follower[0, 0, 0] = 0.0
    ep = dataclasses.replace(ep, follower=RobotStream(ep.follower.rate_hz, follower))
    write_episode(ep, tmp_path / "eps" / "ep-0")
    out = tmp_path / "ds"
    assert main(["augment", str(tmp_path / "eps"), "--method", "downsample", "--out", str(out)]) == 0
    name = "steps-00000.bin"
    data = bytearray((out / name).read_bytes())
    assert data[8:16] == bytes(8)  # step 0's first observation: sample 0, +0.0
    data[15] ^= 0x80
    (out / name).write_bytes(bytes(data))
    crc = f"{zlib.crc32(bytes(data)) & 0xFFFFFFFF:08x}"
    _rewrite_manifest(out, lambda raw: raw["files"][name].update(crc32=crc))
    assert read_dataset(out).episodes[0].observation[0, 0] == 0.0
    rc, rows = _validate_rows(out, tmp_path)
    assert rc == 1
    assert rows[5:] == [
        ("re-derivation", "fail",
         "MultirateError: source ep-0 offset 0: stored steps differ from re-derived steps"),
        ("coverage", "ok", "coverage exact for 1 sources"),
    ]


def test_a_source_named_explicitly_is_read_whatever_its_name(tmp_path, capsys):
    """Only directories found by listing are skipped for a staging name, not a --sources path."""
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "far" / "away" / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    for ep in eps:
        (root / ep.episode_id).rename(root / f"{ep.episode_id}.tmp")
    report = tmp_path / "report.json"
    rc = main(["validate", str(out), "--sources", str(root / "ep-0.tmp"), "--sources", str(root),
               "--report", str(report)])
    assert rc == 0
    rows = {r["name"]: r["detail"] for r in json.loads(report.read_text())["checks"]}
    assert rows["re-derivation"] == "re-derived 10 sub-episodes from 1 sources (1 sources not located)"


def _check_unreadable_payloads(tmp_path, capsys, refuse):
    """Each command fails with IoFailure, not a traceback, once `refuse(paths)` makes them unreadable."""
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    refuse({out / "steps-00003.bin", root / "ep-1" / "leader.f64"})
    capsys.readouterr()
    rc, rows = _validate_rows(out, tmp_path)
    assert rc == 1
    assert rows[1] == (
        "checksums", "fail",
        "IoFailure: cannot read ds/steps-00003.bin: [Errno 13] Permission denied: "
        "'ds/steps-00003.bin'",
    )
    for command in (["stats", str(out)],
                    ["augment", str(root), "--method", "dabi", "--out", str(tmp_path / "ds2")]):
        capsys.readouterr()
        assert main(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IoFailure: cannot read ") and "Permission denied" in err


def test_an_unreadable_payload_fails_each_command_without_a_traceback(
    tmp_path, monkeypatch, capsys
):
    def refuse(refused):
        original = os.open

        def refusing(path, flags, *args, **kwargs):
            if Path(path) in refused:
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return original(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refusing)

    _check_unreadable_payloads(tmp_path, capsys, refuse)


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                    reason="needs a user whom file permissions bind; root reads a mode-000 file")
def test_a_payload_without_read_permission_fails_each_command_without_a_traceback(
    tmp_path, capsys
):
    """The kernel's own EACCES, from `chmod 000`."""
    def refuse(refused):
        for path in refused:
            path.chmod(0)

    _check_unreadable_payloads(tmp_path, capsys, refuse)


def test_validate_probes_for_manifests_only_under_directories(tmp_path, monkeypatch, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    probed = []
    original = Path.is_file

    def probing(self):
        if self.name == "manifest.json":
            probed.append(self.parent)
        return original(self)

    monkeypatch.setattr(Path, "is_file", probing)
    assert main(["validate", str(out)]) == 0
    beside_no_files = list(probed)
    for i in range(60):
        (tmp_path / f"note-{i:02d}.txt").write_text("plain file\n")
        (root / f"note-{i:02d}.txt").write_text("plain file\n")
    probed.clear()
    assert main(["validate", str(out)]) == 0
    assert "re-derived 20 sub-episodes from 2 sources" in capsys.readouterr().out
    assert probed == beside_no_files
    assert all(p.is_dir() for p in probed)
    # augment lists its input directories the same way
    probed.clear()
    assert main(["augment", str(root), "--method", "dabi", "--out", str(tmp_path / "ds2")]) == 0
    assert sorted(probed) == [root, root / "ep-0", root / "ep-0", root / "ep-1", root / "ep-1"]


def _globbed_candidates(dataset_dir, extra, wanted):
    """The source scan written with glob, which probes every entry, plain files too."""
    candidates, scanned = [], []
    for raw in extra:
        path = Path(raw)
        if (path / "manifest.json").is_file():
            candidates.append(path)
        elif path.is_dir():
            scanned.extend(sorted(p for p in path.iterdir() if p.is_dir()))
    parent = dataset_dir.resolve().parent
    for level in (parent.glob("*"), parent.glob("*/*")):
        scanned.extend(sorted(level))
    candidates.extend(p for p in scanned if not p.name.endswith(".tmp"))
    out, seen = {}, {dataset_dir.resolve()}
    for path in candidates:
        if not (path / "manifest.json").is_file() or path.resolve() in seen:
            continue
        seen.add(path.resolve())
        man = json.loads((path / "manifest.json").read_text())
        if man.get("kind") == "episode" and man["episode_id"] in wanted:
            out.setdefault(man["episode_id"], []).append(path)
    return out


def test_source_scan_finds_the_sources_the_glob_scan_found(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    (tmp_path / "alias").symlink_to(root, target_is_directory=True)
    (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
    (tmp_path / "notes.txt").write_text("plain file\n")
    (root / "notes.txt").write_text("plain file\n")
    shutil.copytree(root / "ep-0", root / "ep-0.tmp")
    shutil.copytree(out, tmp_path / "ds.old.tmp")
    shutil.copytree(root, tmp_path / "user.tmp")  # a user's directory, not a staging copy
    shutil.copytree(root / "ep-1", tmp_path / "ep-1-copy")
    shutil.copytree(root / "ep-0", tmp_path / "far" / "ep-0")
    shutil.copytree(root, tmp_path / "far" / "root")
    wanted = ("ep-0", "ep-1")
    for extra in ([], [str(tmp_path / "far" / "ep-0"), str(tmp_path / "far" / "root")]):
        found = cli._source_candidates(out, extra, wanted)
        assert {eid: [p for p, _ in c] for eid, c in found.items()} == _globbed_candidates(
            out, extra, wanted
        )
    # nearest first, then by name: the alias stands for the episodes it points at
    assert [p for p, _ in cli._source_candidates(out, [], wanted)["ep-0"]] == [
        tmp_path.resolve() / where / "ep-0" for where in ("alias", "far", "user.tmp")
    ]
    assert main(["validate", str(out)]) == 0
    assert "re-derived 20 sub-episodes from 2 sources" in capsys.readouterr().out


def test_augment_takes_only_episodes_from_a_listed_directory(tmp_path, capsys):
    """A dataset written among the episodes is passed over by the listing, not read as one."""
    root, eps = _write_episode_tree(tmp_path)
    assert main(["augment", str(root), "--method", "dabi", "--out", str(root / "ds")]) == 0
    capsys.readouterr()
    assert main(["augment", str(root), "--method", "dabi", "--out", str(tmp_path / "ds2")]) == 0
    assert capsys.readouterr().out.startswith("2 episodes -> 20 sub-episodes")
    assert _tree_bytes(tmp_path / "ds2") == _tree_bytes(root / "ds")
    # a directory named directly is read whatever it holds
    assert main(["augment", str(root / "ds"), "--method", "dabi", "--out", str(tmp_path / "x")]) == 1
    assert "expected kind 'episode', found 'dataset'" in capsys.readouterr().err
    # a listed manifest that does not parse fails the command: no source is dropped silently
    (root / "ds" / "manifest.json").write_text("{")
    assert main(["augment", str(root), "--method", "dabi", "--out", str(tmp_path / "ds4")]) == 1
    assert capsys.readouterr().err.startswith("error: ParseFailure: ")
    assert not (tmp_path / "ds4").exists()


def test_simulate_starts_at_the_config_seed(tmp_path, small_config, capsys):
    seven = tmp_path / "seven.json"
    seven.write_text(json.dumps({**json.loads(Path(small_config).read_text()), "seed": 7}))
    assert main(["simulate", "--config", str(seven), "--trajectory", "pick_sweep",
                 "--out", str(tmp_path / "a")]) == 0
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["pick_sweep-00007"]
    assert _simulate_sweep(small_config, tmp_path / "b", 1, 7) == 0
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")


def _command_env(**extra):
    """The environment of a `python -m multirate` child that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": path, **extra}


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_stdout_ends_the_command_quietly(tmp_path, unbuffered):
    """Unbuffered, a print meets the closed pipe; buffered, the flush at the end does."""
    root, eps = _write_episode_tree(tmp_path)
    assert main(["augment", str(root), "--method", "dabi", "--out", str(tmp_path / "ds")]) == 0
    env = _command_env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "multirate", "stats", str(tmp_path / "ds")],
        stdout=write_end, stderr=subprocess.PIPE, env=env,
    )
    # the reader is gone long before the command, still starting up, prints
    os.close(write_end)
    os.close(read_end)
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err.decode()) == (1, "")


def test_a_broken_pipe_on_a_replaced_stdout_is_raised(monkeypatch, capsys):
    """Only the process's own stdout is pointed at devnull; a stream put in its place (a
    caller capturing the output) gets the error back."""
    def broken(args):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(cli, "cmd_stats", broken)
    assert sys.stdout is not sys.__stdout__
    with pytest.raises(BrokenPipeError):
        main(["stats", "anything"])


def test_readme_flow_is_byte_identical_in_two_interpreters(tmp_path):
    """The README flow as commands, run under two hash seeds: the same artifacts and reports.

    The hash seeds are ones under which a set of the two episode ids
    iterates in different orders, so output built from one shows here.
    """
    def multirate(*args, hash_seed="1"):
        done = subprocess.run([sys.executable, "-m", "multirate", *map(str, args)],
                              capture_output=True, text=True, timeout=120,
                              env=_command_env(PYTHONHASHSEED=hash_seed))
        assert done.returncode == 0, done.stderr

    for hash_seed in ("1", "3"):
        flow = tmp_path / f"flow-{hash_seed}"
        reports = flow / "reports"
        reports.mkdir(parents=True)
        for args in (
            ["simulate", "--trajectory", "pick_sweep", "--out", flow / "demos", "--count", "2"],
            ["augment", flow / "demos", "--method", "dabi", "--out", flow / "demos_dabi"],
            ["validate", flow / "demos_dabi"],
            ["stats", flow / "demos_dabi"],
        ):
            multirate(*args, "--report", reports / f"{args[0]}.json", hash_seed=hash_seed)
    assert _tree(tmp_path / "flow-1") == _tree(tmp_path / "flow-3")

    flow = tmp_path / "flow-1"
    ds, validated = flow / "demos_dabi", (flow / "reports" / "validate.json").read_bytes()
    # a manifest path stands for its directory
    multirate("validate", ds / "manifest.json", "--report", tmp_path / "by-manifest.json")
    assert (tmp_path / "by-manifest.json").read_bytes() == validated
    # an overwrite publishes the same dataset again and leaves no aside copy
    multirate("augment", flow / "demos", "--method", "dabi", "--out", ds, "--force")
    multirate("validate", ds, "--report", tmp_path / "after-force.json")
    assert (tmp_path / "after-force.json").read_bytes() == validated
    assert not (flow / "demos_dabi.old.tmp").exists()


def test_files_a_dataset_manifest_does_not_declare_are_ignored(tmp_path, capsys):
    root, eps = _write_episode_tree(tmp_path)
    out = tmp_path / "ds"
    assert main(["augment", str(root), "--method", "dabi", "--out", str(out)]) == 0
    before = read_dataset(out)
    clean = _validate_rows(out, tmp_path)
    (out / "notes.txt").write_text("plain file\n")
    shutil.copy(out / "steps-00003.bin", out / "steps-99999.bin")
    assert read_dataset(out) == before
    assert _validate_rows(out, tmp_path) == clean
