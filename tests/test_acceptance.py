"""Acceptance gate: one test per shipping criterion.

Each test prints a single [acceptance] PASS/FAIL line (straight to the
terminal, bypassing capture) and enforces its stated time budget.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from multirate.augment import augment, evenness_report, make_offsets, slice_episode
from multirate.cli import main
from multirate.errors import (
    ChecksumMismatch,
    ParseFailure,
    ValidationFailure,
)
from multirate.io import read_dataset, read_episode, write_dataset, write_episode
from multirate.model import Method
from multirate.sim import (
    ArmState,
    ControllerGains,
    JointModel,
    ObserverState,
    OperatorSchedule,
    SimConfig,
    bilateral_step,
    dob_update,
    plant_step,
    simulate_episode,
)

from conftest import episode_strategy, make_episode


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_c1_tenfold_expansion(tmp_path, capsys):
    """5 episodes at 1000/100 Hz expand to 50 (dabi, forward) and 5 (downsample)."""
    with _Timer() as t:
        eps_dir = tmp_path / "episodes"
        rc = main([
            "simulate", "--trajectory", "pick_sweep", "--out", str(eps_dir),
            "--count", "5", "--base-seed", "100",
        ])
        assert rc == 0
        counts = {}
        for method in ("dabi", "forward", "downsample"):
            out = tmp_path / f"ds_{method}"
            rc = main(["augment", str(eps_dir), "--method", method, "--out", str(out)])
            assert rc == 0
            ds = read_dataset(out)
            counts[method] = ds.episode_count
            assert all(sub.step_count == 100 for sub in ds.episodes)
    ok = counts == {"dabi": 50, "forward": 50, "downsample": 5} and t.elapsed < 10.0
    _verdict(
        capsys, "C1 tenfold-expansion", ok,
        f"counts={counts} elapsed={t.elapsed:.2f}s budget=10s",
    )


def test_c2_offset_window_contract(capsys):
    """Exact offset windows for every ratio 1..12 and every method."""
    with _Timer() as t:
        bad = []
        for ratio in range(1, 13):
            n = ratio - 1
            want = {
                Method.DOWNSAMPLE: [0],
                Method.FORWARD: list(range(ratio)),
                Method.DABI: list(range(-(n // 2), n - n // 2 + 1)),
            }
            for method in Method:
                got = list(make_offsets(method, ratio))
                if got != want[method]:
                    bad.append((method.value, ratio, got))
                if 0 not in got or got != sorted(got):
                    bad.append((method.value, ratio, "window shape"))
                if method is Method.DABI and (got[-1] + got[0]) not in (0, 1):
                    bad.append((method.value, ratio, "bias"))
    ok = not bad and t.elapsed < 1.0
    _verdict(
        capsys, "C2 offset-window-contract", ok,
        f"ratios=1..12 violations={bad or 'none'} elapsed={t.elapsed:.3f}s budget=1s",
    )


def test_c3_coverage_evenness(capsys):
    """Brute-force reference tally matches evenness_report at T=100, R=10, F=10."""
    with _Timer() as t:
        ep = make_episode(t_len=100, joints=2, ratio=10, frame_count=10)
        mismatches = []
        for method in Method:
            expected = np.zeros(100, dtype=np.int64)
            for off in make_offsets(method, 10):
                for k in range(10):
                    expected[min(max(k * 10 + off, 0), 99)] += 1
            rep = evenness_report(augment([ep], method), ep)
            if not np.array_equal(rep.counts, expected):
                mismatches.append(method.value)
        dabi = evenness_report(augment([ep], Method.DABI), ep)
        frozen = np.array([5] + [1] * 95 + [0] * 4)
        if not np.array_equal(dabi.counts, frozen) or dabi.clamped_steps != 4:
            mismatches.append("dabi-frozen-oracle")
        fwd = evenness_report(augment([ep], Method.FORWARD), ep)
        if not np.array_equal(fwd.counts, np.ones(100, dtype=np.int64)):
            mismatches.append("forward-frozen-oracle")
    ok = not mismatches and t.elapsed < 1.0
    _verdict(
        capsys, "C3 coverage-evenness", ok,
        f"mismatches={mismatches or 'none'} elapsed={t.elapsed:.3f}s budget=1s",
    )


_C4_STATE = {"examples": 0}


@settings(max_examples=110, deadline=None)
@given(episode_strategy())
def _run_c4(ep):
    base = slice_episode(ep, 0)
    for method in (Method.FORWARD, Method.DABI):
        ds = augment([ep], method)
        zero = [s for s in ds.episodes if s.provenance.offset == 0]
        assert len(zero) == 1
        assert zero[0] == base
    _C4_STATE["examples"] += 1


def test_c4_anchor_embedding(capsys):
    """Offset-0 output of forward and dabi equals the downsample output."""
    _C4_STATE["examples"] = 0
    with _Timer() as t:
        _run_c4()
    ok = _C4_STATE["examples"] >= 100 and t.elapsed < 30.0
    _verdict(
        capsys, "C4 anchor-embedding", ok,
        f"examples={_C4_STATE['examples']} elapsed={t.elapsed:.2f}s budget=30s",
    )


def test_c5_bilateral_goals(capsys):
    """Free motion syncs positions; contact cancels the reaction-torque sum."""
    joints = tuple(JointModel(inertia=0.01, viscous_friction=0.05) for _ in range(2))
    gains = ControllerGains()
    dt = 1e-3

    with _Timer() as t_free:
        push = OperatorSchedule(
            name="push", mode="torque", value=lambda t: np.array([0.05, -0.04])
        )
        cfg = SimConfig(joints=joints, gains=gains, duration_s=2.0, seed=0)
        ep = simulate_episode(cfg, push)
        tail = slice(int(0.9 * ep.sample_count), None)
        gap = np.max(
            np.abs(ep.leader.data[tail, :, 0] - ep.follower.data[tail, :, 0])
        )

    with _Timer() as t_contact:
        lead = ArmState.zeros(1)
        foll = ArmState.zeros(1)
        lo = fo = ObserverState.zeros(1)
        wall_at, k_wall, d_wall = 0.05, 400.0, 2.0
        steps = 2000
        sigmas = np.empty(steps)
        peaks = np.empty(steps)
        cjoints = joints[:1]
        for i in range(steps):
            depth = foll.angle[0] - wall_at
            env = np.array(
                [-(k_wall * depth + d_wall * foll.velocity[0]) if depth > 0 else 0.0]
            )
            res = bilateral_step(
                lead, foll, lo, fo, cjoints, gains, dt,
                operator_torque=np.array([0.2]), environment_torque=env,
            )
            lead, foll = res.leader, res.follower
            lo, fo = res.leader_obs, res.follower_obs
            sigmas[i] = abs(res.leader_reaction[0] + res.follower_reaction[0])
            peaks[i] = abs(res.follower_reaction[0])
        peak = peaks.max()
        tail_sigma = sigmas[int(0.9 * steps):].max()

    ok = (
        gap < 1e-3
        and tail_sigma < 0.05 * peak
        and t_free.elapsed < 10.0
        and t_contact.elapsed < 10.0
    )
    _verdict(
        capsys, "C5 bilateral-goals", ok,
        f"free_gap={gap:.2e}rad(<1e-3) contact_sum={tail_sigma:.2e}"
        f"(<{0.05 * peak:.2e}=5%of{peak:.3f}) "
        f"elapsed={t_free.elapsed:.2f}s/{t_contact.elapsed:.2f}s budget=10s each",
    )


def test_c6_dob_step_response(capsys):
    """Observer tracks a constant load along the first-order closed form."""
    with _Timer() as t:
        load = 0.5
        gains = ControllerGains()
        joints = (JointModel(inertia=0.01),)
        dt = 1e-3
        tau = 1.0 / gains.dob_cutoff  # 5 ms
        horizon = int(round(10 * tau / dt))  # out to 10 time constants
        arm = ArmState.zeros(1)
        obs = ObserverState.zeros(1)
        worst = 0.0
        for n in range(1, horizon + 1):
            arm = plant_step(arm, np.array([-load]), joints, dt)
            obs = dob_update(obs, np.zeros(1), arm.velocity, joints, gains, dt)
            if n * dt >= 5 * tau:
                expected = load * (1.0 - math.exp(-gains.dob_cutoff * n * dt))
                worst = max(worst, abs(obs.dob_estimate[0] - expected) / expected)
    ok = worst < 0.02 and t.elapsed < 5.0
    _verdict(
        capsys, "C6 dob-step-response", ok,
        f"max_rel_err={worst:.2e}(<0.02 after 5 tau) elapsed={t.elapsed:.3f}s budget=5s",
    )


def test_c7_persistence_contract(tmp_path, capsys):
    """Round trips are bit-exact; defective artifacts raise the right errors."""
    with _Timer() as t:
        failures = []
        ep = make_episode(t_len=95, joints=3, ratio=10, frame_count=10, cameras=("a", "b"))
        ds = augment([ep], Method.DABI)

        d1 = write_episode(ep, tmp_path / "ep1").parent
        d2 = write_episode(read_episode(d1), tmp_path / "ep2").parent
        trees = [
            {p.name: p.read_bytes() for p in sorted(d.iterdir())} for d in (d1, d2)
        ]
        if trees[0] != trees[1]:
            failures.append("episode re-write not byte-identical")
        if read_episode(d1) != ep:
            failures.append("episode round trip changed content")

        g1 = write_dataset(ds, tmp_path / "ds1").parent
        g2 = write_dataset(read_dataset(g1), tmp_path / "ds2").parent
        trees = [
            {p.name: p.read_bytes() for p in sorted(d.iterdir())} for d in (g1, g2)
        ]
        if trees[0] != trees[1]:
            failures.append("dataset re-write not byte-identical")
        if read_dataset(g1) != ds:
            failures.append("dataset round trip changed content")

        corrupt = write_episode(ep, tmp_path / "ep_bad").parent
        blob = bytearray((corrupt / "leader.f64").read_bytes())
        blob[100] ^= 0xFF
        (corrupt / "leader.f64").write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            read_episode(corrupt)

        trunc = write_episode(ep, tmp_path / "ep_trunc").parent
        man = trunc / "manifest.json"
        man.write_bytes(man.read_bytes()[:25])
        with pytest.raises(ParseFailure):
            read_episode(trunc)

        short = write_dataset(ds, tmp_path / "ds_short").parent
        (short / "steps-00007.bin").unlink()
        with pytest.raises(ValidationFailure):
            read_dataset(short)

        vers = write_dataset(ds, tmp_path / "ds_vers").parent
        raw = json.loads((vers / "manifest.json").read_text())
        raw["format_version"] = 2
        (vers / "manifest.json").write_text(json.dumps(raw))
        with pytest.raises(ParseFailure):
            read_dataset(vers)

        oversold = write_episode(ep, tmp_path / "ep_oversold")
        raw = json.loads(oversold.read_text())
        raw["sample_count"] += 5
        oversold.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
        with pytest.raises(ValidationFailure):
            read_episode(oversold)
    ok = not failures and t.elapsed < 5.0
    _verdict(
        capsys, "C7 persistence-contract", ok,
        f"failures={failures or 'none'} elapsed={t.elapsed:.2f}s budget=5s",
    )


def test_c8_unit_ratio_degeneracy(capsys):
    """At ratio 1 all three methods produce the same single sub-episode."""
    with _Timer() as t:
        ep = make_episode(t_len=30, joints=2, ratio=1, episode_id="flat")
        outputs = {m: augment([ep], m) for m in Method}
        problems = []
        for m, ds in outputs.items():
            if ds.episode_count != 1 or ds.manifest.ratio != 1:
                problems.append(f"{m.value}: wrong shape")
            if ds.episodes[0].provenance.offset != 0:
                problems.append(f"{m.value}: wrong offset")
        a, b, c = (outputs[m].episodes[0] for m in Method)
        if not (a == b and b == c):
            problems.append("step content differs between methods")
        anchors = a.source_index.tolist()
        if anchors != list(range(30)):
            problems.append("ratio-1 alignment is not the identity")
    ok = not problems and t.elapsed < 1.0
    _verdict(
        capsys, "C8 unit-ratio-degeneracy", ok,
        f"problems={problems or 'none'} elapsed={t.elapsed:.3f}s budget=1s",
    )


def _run_pipeline(root: Path) -> None:
    cfg = {
        "joints": [{"inertia": 0.01, "viscous_friction": 0.05}] * 2,
        "robot_rate_hz": 1000,
        "frame_rate_hz": 100,
        "duration_s": 0.3,
        "seed": 0,
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    eps = root / "episodes"
    assert main([
        "simulate", "--config", str(cfg_path), "--trajectory", "pick_sweep",
        "--out", str(eps), "--count", "3", "--base-seed", "20",
        "--report", str(root / "simulate_report.json"),
    ]) == 0
    for method in ("dabi", "forward", "downsample"):
        out = root / f"ds_{method}"
        assert main([
            "augment", str(eps), "--method", method, "--out", str(out),
            "--report", str(root / f"augment_{method}_report.json"),
        ]) == 0
        assert main([
            "validate", str(out), "--report", str(root / f"validate_{method}_report.json"),
        ]) == 0
        assert main([
            "stats", str(out), "--report", str(root / f"stats_{method}_report.json"),
        ]) == 0


def test_c9_end_to_end_determinism(tmp_path, capsys):
    """The same seeds yield byte-identical artifacts in two runs of the pipeline.

    Both runs share this process, and so one hash seed. The flow run in
    two interpreters under different hash seeds is checked by
    tests/test_cli.py::test_readme_flow_is_byte_identical_in_two_interpreters.
    """
    with _Timer() as t:
        roots = (tmp_path / "run_a", tmp_path / "run_b")
        for root in roots:
            root.mkdir()
            _run_pipeline(root)
        trees = []
        for root in roots:
            trees.append({
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file() and p.name != "config.json"
            })
        same_names = set(trees[0]) == set(trees[1])
        diffs = [k for k in trees[0] if same_names and trees[0][k] != trees[1][k]]
    ok = same_names and not diffs and len(trees[0]) > 20 and t.elapsed < 30.0
    _verdict(
        capsys, "C9 end-to-end-determinism", ok,
        f"files={len(trees[0])} differing={diffs or 'none'} "
        f"elapsed={t.elapsed:.2f}s budget=30s",
    )
