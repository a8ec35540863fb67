import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from multirate.errors import NumericalDivergence, ParseFailure, ValidationFailure
from multirate.sim import (
    OPERATOR_KD,
    OPERATOR_KP,
    ArmState,
    ControllerGains,
    Disturbance,
    JointModel,
    ObserverState,
    OperatorSchedule,
    SimConfig,
    bilateral_step,
    control_commands,
    default_sim_config,
    dob_update,
    load_sim_config,
    plant_step,
    rfob_update,
    run_simulation,
    run_simulations,
    scripted_trajectories,
    sim_config_from_dict,
    sim_config_to_dict,
    simulate_episode,
)

JOINT = (JointModel(inertia=0.01, viscous_friction=0.0),)
DAMPED = (JointModel(inertia=0.01, viscous_friction=0.05),)
GAINS = ControllerGains()
DT = 1e-3


def test_joint_model_validation():
    with pytest.raises(ValidationFailure):
        JointModel(inertia=0.0)
    with pytest.raises(ValidationFailure):
        JointModel(inertia=0.01, viscous_friction=-1.0)


def test_gains_validation():
    with pytest.raises(ValidationFailure):
        ControllerGains(kp=-1.0)
    with pytest.raises(ValidationFailure):
        ControllerGains(dob_cutoff=0.0)


def test_plant_step_is_semi_implicit():
    state = ArmState(angle=np.array([0.1]), velocity=np.array([2.0]))
    torque = np.array([0.05])
    out = plant_step(state, torque, DAMPED, DT)
    accel = (0.05 - 0.05 * 2.0) / 0.01
    v_next = 2.0 + DT * accel
    assert out.velocity[0] == pytest.approx(v_next, abs=1e-15)
    # the new velocity, not the old one, advances the angle
    assert out.angle[0] == pytest.approx(0.1 + DT * v_next, abs=1e-15)


def test_dob_tracks_constant_load_exactly():
    """A constant load on a free joint settles along d * (1 - exp(-g t))."""
    load = 0.5
    arm = ArmState.zeros(1)
    obs = ObserverState.zeros(1)
    g = GAINS.dob_cutoff
    for n in range(1, 201):
        arm = plant_step(arm, np.array([-load]), JOINT, DT)
        obs = dob_update(obs, np.zeros(1), arm.velocity, JOINT, GAINS, DT)
        expected = load * (1.0 - math.exp(-g * n * DT))
        assert obs.dob_estimate[0] == pytest.approx(expected, rel=1e-12)
    # after 200 ms = 40 time constants the estimate has fully settled
    assert obs.dob_estimate[0] == pytest.approx(load, rel=1e-9)


def test_dob_sign_convention():
    # positive load (torque draining the joint) yields a positive estimate
    arm = ArmState.zeros(1)
    obs = ObserverState.zeros(1)
    for _ in range(50):
        arm = plant_step(arm, np.array([-0.5]), JOINT, DT)
        obs = dob_update(obs, np.zeros(1), arm.velocity, JOINT, GAINS, DT)
    assert obs.dob_estimate[0] > 0


def test_rfob_is_pure_subtraction():
    est = np.array([0.30])
    vel = np.array([1.5])
    out = rfob_update(est, np.zeros(1), vel, DAMPED)
    assert out[0] == pytest.approx(0.30 - 0.05 * 1.5, abs=1e-15)


def test_rfob_subtracts_gravity():
    grav = (JointModel(inertia=0.01, gravity_torque_fn=lambda a: 0.2 * math.sin(a)),)
    out = rfob_update(np.array([0.1]), np.array([math.pi / 2]), np.zeros(1), grav)
    assert out[0] == pytest.approx(0.1 - 0.2, abs=1e-12)


def test_observers_start_at_zero():
    obs = ObserverState.zeros(3)
    assert not obs.dob_estimate.any()
    assert not obs.rfob_lowpass.any()
    assert not obs.prev_velocity.any()


def test_bilateral_step_holds_at_rest():
    arms = ArmState.zeros(2), ArmState.zeros(2)
    obses = ObserverState.zeros(2), ObserverState.zeros(2)
    res = bilateral_step(arms[0], arms[1], obses[0], obses[1], DAMPED * 2, GAINS, DT)
    assert not res.leader.angle.any() and not res.leader.velocity.any()
    assert not res.follower.angle.any() and not res.follower.velocity.any()
    assert not res.leader_command.any() and not res.follower_command.any()


def test_bilateral_step_raises_on_divergence():
    lead = ArmState(angle=np.array([0.0]), velocity=np.array([0.0]))
    foll = ArmState.zeros(1)
    obs = ObserverState.zeros(1)
    with pytest.raises(NumericalDivergence):
        bilateral_step(
            lead, foll, obs, obs, JOINT, GAINS, DT,
            operator_torque=np.array([1e12]),
        )


def test_bilateral_sync_under_constant_push():
    """Constant operator torque in free space: arms stay position-locked."""
    joints = DAMPED * 2
    lead = ArmState.zeros(2)
    foll = ArmState.zeros(2)
    lo = fo = ObserverState.zeros(2)
    push = np.array([0.05, -0.03])
    for _ in range(2000):
        res = bilateral_step(lead, foll, lo, fo, joints, GAINS, DT, operator_torque=push)
        lead, foll, lo, fo = res.leader, res.follower, res.leader_obs, res.follower_obs
    assert np.max(np.abs(lead.angle - foll.angle)) < 1e-6
    # the push drags both arms in its own direction
    assert lead.velocity[0] > 0 and lead.velocity[1] < 0
    # the leader feels the push as a negative reaction torque
    assert res.leader_reaction[0] == pytest.approx(-0.05, abs=5e-3)


def test_wall_contact_cancels_reaction_sum():
    """Pushing the follower into a stiff wall: tres_l + tres_f -> 0."""
    joints = DAMPED
    lead = ArmState.zeros(1)
    foll = ArmState.zeros(1)
    lo = fo = ObserverState.zeros(1)
    push = np.array([0.2])
    wall_at, k_wall, d_wall = 0.05, 400.0, 2.0
    sigmas = []
    for _ in range(1500):
        depth = foll.angle[0] - wall_at
        env = np.array(
            [-(k_wall * depth + d_wall * foll.velocity[0]) if depth > 0 else 0.0]
        )
        res = bilateral_step(
            lead, foll, lo, fo, joints, GAINS, DT,
            operator_torque=push, environment_torque=env,
        )
        lead, foll, lo, fo = res.leader, res.follower, res.leader_obs, res.follower_obs
        sigmas.append(abs(res.leader_reaction[0] + res.follower_reaction[0]))
    assert foll.angle[0] > wall_at  # actually pressing into the wall
    assert max(sigmas[-150:]) < 0.05 * 0.2  # sum well under 5% of the push


def test_hold_trajectory_is_exactly_zero():
    cfg = SimConfig(joints=DAMPED * 2, duration_s=0.1, seed=3)
    ep = simulate_episode(cfg, "hold")
    assert not ep.leader.data.any()
    assert not ep.follower.data.any()


def test_simulation_shapes_and_meta():
    cfg = SimConfig(joints=DAMPED * 3, duration_s=0.25, seed=1)
    ep = simulate_episode(cfg, "step")
    assert ep.sample_count == 250
    assert ep.frame_count == 25
    assert ep.ratio == 10
    assert ep.joints == 3
    assert ep.camera_ids == ("overhead", "wrist")
    assert ep.episode_id == "step-00001"
    assert ep.meta["task"] == "step"
    assert ep.meta["seed"] == "1"


def test_simulation_shapes_at_500_50_hz():
    cfg = SimConfig(
        joints=DAMPED * 2, duration_s=0.5, robot_rate_hz=500, frame_rate_hz=50, seed=2
    )
    ep = simulate_episode(cfg, "step")
    assert ep.sample_count == 250
    assert ep.frame_count == 25
    assert ep.ratio == 10


def test_simulation_is_deterministic():
    cfg = SimConfig(joints=DAMPED * 2, duration_s=0.2, seed=11)
    a = simulate_episode(cfg, "pick_sweep")
    b = simulate_episode(cfg, "pick_sweep")
    assert a == b


def test_seed_changes_the_episode():
    base = SimConfig(joints=DAMPED * 2, duration_s=0.2, seed=11)
    other = SimConfig(joints=DAMPED * 2, duration_s=0.2, seed=12)
    a = simulate_episode(base, "pick_sweep")
    b = simulate_episode(other, "pick_sweep")
    assert a.episode_id != b.episode_id
    assert not np.array_equal(a.leader.data, b.leader.data)


def test_step_trajectory_tracks_target():
    cfg = SimConfig(joints=DAMPED * 2, duration_s=1.0, seed=0)
    res = run_simulation(cfg, "step")
    final_angles = res.episode.leader.data[-1, :, 0]
    # seed 0 scales the 0.3 rad target per joint within [0.9, 1.1]
    assert np.all(final_angles > 0.24) and np.all(final_angles < 0.37)
    assert res.max_position_gap < 0.05


def test_disturbance_shows_up_in_reaction_torque():
    """Steady 0.3 N*m contact load: follower reaction settles within 5% of it."""
    cfg = SimConfig(
        joints=DAMPED * 2,
        duration_s=0.5,
        seed=0,
        disturbances=(Disturbance(joint=0, start_s=0.1, end_s=0.5, torque=-0.3),),
    )
    ep = simulate_episode(cfg, "hold")
    tail = ep.follower.data[-50:, 0, 2]
    assert np.all(np.abs(tail - 0.3) < 0.05 * 0.3)
    assert np.all(np.abs(ep.follower.data[-50:, 1, 2]) < 0.015)


def test_dob_estimate_negates_with_the_load():
    """Sign-flipping the load trajectory negates the estimate trajectory exactly.

    Every operation in the plant and the observer is linear, so the float
    results must match bit for bit, not just approximately.
    """
    runs = []
    for sign in (+1.0, -1.0):
        arm = ArmState.zeros(1)
        obs = ObserverState.zeros(1)
        trace = []
        for n in range(150):
            load = sign * (0.4 if n < 75 else 0.15)
            arm = plant_step(arm, np.array([-load]), JOINT, DT)
            obs = dob_update(obs, np.zeros(1), arm.velocity, JOINT, GAINS, DT)
            trace.append(obs.dob_estimate[0])
        runs.append(np.array(trace))
    assert np.array_equal(runs[0], -runs[1])


def test_frame_payload_matches_follower_angles():
    cfg = SimConfig(joints=DAMPED * 2, duration_s=0.1, seed=4)
    ep = simulate_episode(cfg, "step")
    import struct

    for cam in ep.frame_streams:
        for rec in cam.records:
            angles = struct.unpack("<2d", rec.payload)
            np.testing.assert_allclose(
                angles, ep.follower.data[rec.seq * ep.ratio, :, 0], atol=0.0
            )


def test_scripted_trajectory_names():
    for name in ("hold", "step", "pick_sweep"):
        sched = scripted_trajectories(name, 3)
        assert sched.value(0.5).shape == (3,)
    with pytest.raises(ValidationFailure):
        scripted_trajectories("wiggle", 3)


def test_pick_sweep_is_continuous_and_phased():
    duration = 2.0
    sched = scripted_trajectories("pick_sweep", 3, duration)
    dt = 1e-4
    samples = np.stack([sched.value(n * dt) for n in range(int(duration / dt) + 1)])
    # numerically continuous: no sample-to-sample jump beyond a slope bound
    jumps = np.abs(np.diff(samples, axis=0)).max()
    assert jumps < 1e-3
    # resting, reached, and settled plateaus in order
    reach = np.array([0.25, 0.35, 0.45])
    np.testing.assert_allclose(samples[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(sched.value(0.45 * duration), reach, atol=1e-9)
    np.testing.assert_allclose(sched.value(duration), -0.5 * reach, atol=1e-9)


def test_free_joint_kinetic_energy_never_increases():
    """No input torque and nonnegative friction: KE cannot grow between ticks."""
    for b in (0.0, 0.05, 0.4):
        joints = (JointModel(inertia=0.01, viscous_friction=b),)
        arm = ArmState(angle=np.zeros(1), velocity=np.array([3.0]))
        energy = 0.5 * 0.01 * arm.velocity[0] ** 2
        for _ in range(500):
            arm = plant_step(arm, np.zeros(1), joints, DT)
            nxt = 0.5 * 0.01 * arm.velocity[0] ** 2
            assert nxt <= energy + 1e-9
            energy = nxt


def test_schedule_mode_validation():
    with pytest.raises(ValidationFailure):
        OperatorSchedule(name="x", mode="impulse", value=lambda t: np.zeros(1))


def test_sim_config_validation():
    with pytest.raises(ValidationFailure):
        SimConfig(joints=())
    with pytest.raises(ValidationFailure):
        SimConfig(joints=DAMPED, robot_rate_hz=1000, frame_rate_hz=300)
    with pytest.raises(ValidationFailure):
        SimConfig(joints=DAMPED, duration_s=0.0105)  # not a whole sample count
    with pytest.raises(ValidationFailure):
        SimConfig(joints=DAMPED, dt=3e-4)  # does not divide the sample period
    with pytest.raises(ValidationFailure):
        SimConfig(joints=DAMPED, disturbances=(Disturbance(joint=5, start_s=0, end_s=1, torque=0.1),))


def test_substep_integration():
    cfg = SimConfig(joints=DAMPED * 2, duration_s=0.1, seed=0, dt=2.5e-4)
    assert cfg.substeps == 4
    ep_fine = simulate_episode(cfg, "step")
    ep_coarse = simulate_episode(
        SimConfig(joints=DAMPED * 2, duration_s=0.1, seed=0), "step"
    )
    assert ep_fine.sample_count == ep_coarse.sample_count
    # finer integration changes trailing digits but not the trajectory shape
    np.testing.assert_allclose(
        ep_fine.leader.data[:, :, 0], ep_coarse.leader.data[:, :, 0], atol=5e-3
    )


def test_config_json_round_trip(tmp_path):
    cfg = default_sim_config()
    raw = sim_config_to_dict(cfg)
    assert sim_config_from_dict(raw) == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert load_sim_config(path) == cfg


def test_bundled_config_matches_defaults():
    from pathlib import Path

    bundled = Path(__file__).resolve().parent.parent / "configs" / "default_sim.json"
    assert load_sim_config(bundled) == default_sim_config()


@pytest.mark.parametrize("field,value", [("gains", []), ("gains", "stiff"), ("cameras", "wrist")])
def test_sim_config_from_dict_rejects_wrong_shapes(field, value):
    raw = sim_config_to_dict(default_sim_config())
    raw[field] = value
    with pytest.raises(ParseFailure):
        sim_config_from_dict(raw)


def test_load_sim_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseFailure):
        load_sim_config(bad)
    with pytest.raises(ParseFailure):
        load_sim_config(tmp_path / "absent.json")
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"joints": []}))
    with pytest.raises(ParseFailure):
        load_sim_config(missing)


# Byte-level pin of run_simulation.  Each digest covers both joint streams,
# both command traces, every frame payload and repr(max_position_gap), for
# the default five-joint rig over 0.25 s.  The gravity hook is a polynomial
# so that the digests do not depend on the platform's libm.
PIN_DISTURBANCES = (
    Disturbance(joint=1, start_s=0.05, end_s=0.2, torque=0.2, arm="leader"),
    Disturbance(joint=0, start_s=0.1, end_s=0.25, torque=-0.3),
)


def _poly_gravity(a: float) -> float:
    return 0.3 * a - 0.05 * a * a * a


def _pin_config(dt, disturbed, gravity):
    base = default_sim_config()
    joints = tuple(
        dataclasses.replace(j, gravity_torque_fn=_poly_gravity if gravity and i % 2 == 0 else None)
        for i, j in enumerate(base.joints)
    )
    return dataclasses.replace(
        base,
        joints=joints,
        duration_s=0.25,
        seed=7,
        dt=dt,
        disturbances=PIN_DISTURBANCES if disturbed else (),
    )


def _result_digest(res) -> str:
    h = hashlib.sha256()
    ep = res.episode
    for arr in (ep.leader.data, ep.follower.data, res.leader_commands, res.follower_commands):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    for fs in ep.frame_streams:
        for rec in fs.records:
            h.update(f"{fs.camera_id}:{rec.seq}:".encode())
            h.update(rec.payload)
    h.update(repr(res.max_position_gap).encode())
    return h.hexdigest()


PIN_CASES = list(
    itertools.product(("hold", "step", "pick_sweep"), (None, 2.5e-4), (False, True), (False, True))
)
PIN_DIGESTS = {
    ("hold", None, False, False):
        "11014cae7f08b14025ba65f5205767eb2eae3d1df94f8814380e5700a8e2c72b",
    ("hold", None, False, True):
        "11014cae7f08b14025ba65f5205767eb2eae3d1df94f8814380e5700a8e2c72b",
    ("hold", None, True, False):
        "16e1e32ba1d4e35541277a093b317552a1a36abe907aeffab065de89bde6f6ad",
    ("hold", None, True, True):
        "038d7549dcde6dc054ba46d0bc815df150e4867a7e07bbe1b9c32fb61a916385",
    ("hold", 0.00025, False, False):
        "11014cae7f08b14025ba65f5205767eb2eae3d1df94f8814380e5700a8e2c72b",
    ("hold", 0.00025, False, True):
        "11014cae7f08b14025ba65f5205767eb2eae3d1df94f8814380e5700a8e2c72b",
    ("hold", 0.00025, True, False):
        "7aeef71be32af409e696c7eb7e4ca723c6fba5609f59d05b137d9d869172eb53",
    ("hold", 0.00025, True, True):
        "35697736a522b59e42491ee48cf7daaa6299bc50a852a24aa12e5e366b2aff8f",
    ("step", None, False, False):
        "08ee57117619ab3a8e65053e62999e01d6a0ed05a61b046105b743d6fa332208",
    ("step", None, False, True):
        "862e4862743e3d6ebdadff2b9b918751c7f27e01c05fa58c6f7ff6f1a3824796",
    ("step", None, True, False):
        "5ef5659523ba0c063c3c7bf56e9ced99f82e6f7297cf8cac91de98262146f05d",
    ("step", None, True, True):
        "91f4e5e1c70f63e7ec22e657376fb69eedaf23195e560e13a72fb517a16ba5d6",
    ("step", 0.00025, False, False):
        "fc10ae8fa0d9c81f048b25e582378aa9794a5387d796cbaa988aa93d6592949b",
    ("step", 0.00025, False, True):
        "b26a3648a6025bab081bca199447853d031ff8b28c77e030c477502713854309",
    ("step", 0.00025, True, False):
        "f68fe6fabb142d3b40fd1bd4a93d6e0a3dd2daf342adb6e6c639dc1ecd17b70f",
    ("step", 0.00025, True, True):
        "77230d45a8f2da9ee50ac2d3fbdba99f40a731314007901081752ac251dc360a",
    ("pick_sweep", None, False, False):
        "7b54675b83e2c288ba89526a68ff564c2e3cda9941d1280f71578ba56983c6d4",
    ("pick_sweep", None, False, True):
        "93f275d19b7e537f01824041675eb1f701b7d081fd2ce220076d6806529b4403",
    ("pick_sweep", None, True, False):
        "ca605abea4f718d3e57d205c942db150e83f2babfb33ceb1477e3bd2c79f9e11",
    ("pick_sweep", None, True, True):
        "cbb3358f3ae15f120d63c84502a4b01b78606d96645f71f70250628d0ae89dc0",
    ("pick_sweep", 0.00025, False, False):
        "4b5ffc9892cb4c8f1e4c894a1c6e18e872e534e0a76537a56003dd7b05540c2b",
    ("pick_sweep", 0.00025, False, True):
        "a4ab48f979cd7b6ea416a89c09a50f8cf33c8ea47416339d97ad5be50050553b",
    ("pick_sweep", 0.00025, True, False):
        "e738918de9e0fefad7f17405a2d06cc6c4b81121b46776532f7228c908fc46eb",
    ("pick_sweep", 0.00025, True, True):
        "c52df83706fb5ba537ac80e593692f1746b7c4ea1edb4c0e883a1839f5578bc0",
}


@pytest.mark.parametrize("trajectory,dt,disturbed,gravity", PIN_CASES)
def test_run_simulation_bytes_are_pinned(trajectory, dt, disturbed, gravity):
    res = run_simulation(_pin_config(dt, disturbed, gravity), trajectory)
    assert _result_digest(res) == PIN_DIGESTS[trajectory, dt, disturbed, gravity]


def _reference_run(config, trajectory):
    """The recording loop written out over the public per-step functions."""
    sched = scripted_trajectories(trajectory, config.joint_count, config.duration_s)
    jc, dt = config.joint_count, config.dt_effective
    amplitude = np.random.default_rng(config.seed).uniform(0.9, 1.1, size=jc)
    lead, foll = ArmState.zeros(jc), ArmState.zeros(jc)
    lo, fo = ObserverState.zeros(jc), ObserverState.zeros(jc)
    rec_l, rec_f, cmds_l, cmds_f, gaps = [], [], [], [], []

    def external(t, arm):
        out = np.zeros(jc)
        for d in config.disturbances:
            if d.arm == arm and d.start_s <= t < d.end_s:
                out[d.joint] += d.torque
        return out

    for k in range(config.sample_count):
        cmd_l, cmd_f, tres_l, tres_f = control_commands(
            lead, foll, lo, fo, config.joints, config.gains
        )
        rec_l.append(np.stack([lead.angle, lead.velocity, tres_l], axis=-1))
        rec_f.append(np.stack([foll.angle, foll.velocity, tres_f], axis=-1))
        cmds_l.append(cmd_l)
        cmds_f.append(cmd_f)
        gaps.append(float(np.max(np.abs(lead.angle - foll.angle))))
        if k + 1 == config.sample_count:
            break
        for i in range(config.substeps):
            t = k / config.robot_rate_hz + i * dt
            ref = amplitude * sched.value(t)
            op = OPERATOR_KP * (ref - lead.angle) - OPERATOR_KD * lead.velocity
            res = bilateral_step(
                lead, foll, lo, fo, config.joints, config.gains, dt,
                operator_torque=op + external(t, "leader"),
                environment_torque=external(t, "follower"),
            )
            lead, foll, lo, fo = res.leader, res.follower, res.leader_obs, res.follower_obs
    return np.array(rec_l), np.array(rec_f), np.array(cmds_l), np.array(cmds_f), max([0.0] + gaps)


def test_run_simulation_matches_bilateral_step_loop():
    config = _pin_config(2.5e-4, disturbed=True, gravity=True)
    res = run_simulation(config, "pick_sweep")
    rec_l, rec_f, cmds_l, cmds_f, gap = _reference_run(config, "pick_sweep")
    for got, want in (
        (res.episode.leader.data, rec_l),
        (res.episode.follower.data, rec_f),
        (res.leader_commands, cmds_l),
        (res.follower_commands, cmds_f),
    ):
        assert got.tobytes() == want.tobytes()
    assert repr(res.max_position_gap) == repr(gap)
    for rec in res.episode.frame_streams[0].records:
        assert rec.payload == rec_f[rec.seq * config.ratio, :, 0].tobytes()


def test_run_simulation_raises_on_divergence():
    config = dataclasses.replace(default_sim_config(), gains=ControllerGains(kp=1e7))
    with pytest.raises(NumericalDivergence) as exc:
        run_simulation(config, "step")
    assert str(exc.value) == "leader state magnitude 2.162e+06 exceeds limit 1.000e+06"


BATCH_SEEDS = [3, 0, 7]  # unsorted, so the result order is pinned too


@pytest.mark.parametrize("trajectory,dt,disturbed,gravity", PIN_CASES)
def test_run_simulations_match_separate_runs(trajectory, dt, disturbed, gravity):
    config = _pin_config(dt, disturbed, gravity)
    batch = run_simulations(config, trajectory, BATCH_SEEDS)
    assert [r.episode.episode_id for r in batch] == [
        f"{trajectory}-{seed:05d}" for seed in BATCH_SEEDS
    ]
    for seed, res in zip(BATCH_SEEDS, batch):
        alone = run_simulation(dataclasses.replace(config, seed=seed), trajectory)
        assert _result_digest(res) == _result_digest(alone)
        assert res.episode.meta == alone.episode.meta
    # the pinned config's own seed is 7, the last of the batch
    assert _result_digest(batch[-1]) == PIN_DIGESTS[trajectory, dt, disturbed, gravity]


def test_run_simulations_checks_each_seed():
    config = dataclasses.replace(default_sim_config(), duration_s=0.01)
    with pytest.raises(ValidationFailure, match="seed must be >= 0, got -1"):
        run_simulations(config, "hold", [0, -1])
    assert run_simulations(config, "hold", []) == []


def _owner(arr):
    while arr.base is not None:
        arr = arr.base
    return arr


def test_run_simulations_give_each_seed_its_own_memory():
    config = dataclasses.replace(default_sim_config(), duration_s=0.05)
    seen = set()
    for res in run_simulations(config, "hold", [0, 1, 2]):
        ep = res.episode
        arrays = (ep.leader.data, ep.follower.data, res.leader_commands, res.follower_commands)
        owners = {id(_owner(arr)) for arr in arrays}
        assert not owners & seen
        seen |= owners
        # what a result keeps alive is its own streams and commands, read-only
        assert sum(_owner(arr).nbytes for arr in arrays[:2]) == 2 * ep.leader.data.nbytes
        assert _owner(res.leader_commands).nbytes == 2 * res.leader_commands.nbytes
        assert not any(arr.flags.writeable for arr in arrays)


def test_run_simulations_raises_when_any_seed_diverges():
    config = dataclasses.replace(default_sim_config(), gains=ControllerGains(kp=1e7))
    with pytest.raises(NumericalDivergence, match="exceeds limit 1.000e[+]06"):
        run_simulations(config, "step", [0, 1, 2])
