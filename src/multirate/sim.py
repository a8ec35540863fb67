"""Four-channel bilateral teleoperation simulator.

Two identical arms are coupled so that the leader-follower position gap and
the sum of their reaction torques are both driven to zero.  Each arm runs a
disturbance observer (DOB) whose low-passed estimate of load torque feeds
back into its command, and a reaction-torque observer (RFOB) that subtracts
modeled friction and gravity from that estimate to expose the torque the arm
exerts on its surroundings.  Sign convention: a positive external push on an
arm shows up as a negative reaction torque on that arm, so leader (operator
pushes) and follower (environment resists) cancel in the sum when the loop
is balanced.

Plants integrate with semi-implicit Euler; observers use the exact
zero-order-hold discretization of a first-order low-pass, so a constant
load settles along d * (1 - exp(-cutoff * t)) to machine precision.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import NumericalDivergence, ParseFailure, ValidationFailure
from .model import Episode, FrameRecord, FrameStream, RobotStream

STATE_LIMIT = 1.0e6  # rad or rad/s; beyond this the run is declared divergent

# Operator arm impedance used by reference-tracking schedules.
OPERATOR_KP = 8.0  # N*m/rad
OPERATOR_KD = 0.4  # N*m*s/rad

TRAJECTORY_NAMES = ("hold", "step", "pick_sweep")

STEP_TIME_S = 0.1
STEP_ANGLE_RAD = 0.3


@dataclass(frozen=True)
class JointModel:
    """Physical parameters of one joint, shared by both arms."""

    inertia: float  # kg*m^2
    viscous_friction: float = 0.0  # N*m*s/rad
    gravity_torque_fn: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.inertia) and self.inertia > 0):
            raise ValidationFailure(f"inertia must be finite and > 0, got {self.inertia}")
        if not (math.isfinite(self.viscous_friction) and self.viscous_friction >= 0):
            raise ValidationFailure(
                f"viscous_friction must be finite and >= 0, got {self.viscous_friction}"
            )


@dataclass(frozen=True)
class ControllerGains:
    """Bilateral loop gains and observer cutoffs."""

    kp: float = 900.0  # position channel, 1/s^2
    kd: float = 60.0  # velocity channel, 1/s
    kf: float = 1.0  # force channel, dimensionless
    dob_cutoff: float = 200.0  # rad/s
    rfob_cutoff: float = 200.0  # rad/s

    def __post_init__(self) -> None:
        for name in ("kp", "kd", "kf"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValidationFailure(f"gain {name} must be finite and >= 0, got {v}")
        for name in ("dob_cutoff", "rfob_cutoff"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValidationFailure(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class Disturbance:
    """Constant external torque on one joint over a time window."""

    joint: int
    start_s: float
    end_s: float
    torque: float
    arm: str = "follower"

    def __post_init__(self) -> None:
        if self.joint < 0:
            raise ValidationFailure(f"disturbance joint must be >= 0, got {self.joint}")
        if not (0.0 <= self.start_s < self.end_s):
            raise ValidationFailure(
                f"disturbance window must satisfy 0 <= start < end, got "
                f"[{self.start_s}, {self.end_s})"
            )
        if not math.isfinite(self.torque):
            raise ValidationFailure("disturbance torque must be finite")
        if self.arm not in ("leader", "follower"):
            raise ValidationFailure(f"disturbance arm must be leader|follower, got {self.arm!r}")


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulated episode except the task."""

    joints: tuple[JointModel, ...]
    gains: ControllerGains = ControllerGains()
    robot_rate_hz: int = 1000
    frame_rate_hz: int = 100
    duration_s: float = 1.0
    seed: int = 0
    dt: float | None = None  # integrator substep; defaults to one robot sample
    disturbances: tuple[Disturbance, ...] = ()
    cameras: tuple[str, ...] = ("overhead", "wrist")

    def __post_init__(self) -> None:
        object.__setattr__(self, "joints", tuple(self.joints))
        object.__setattr__(self, "disturbances", tuple(self.disturbances))
        object.__setattr__(self, "cameras", tuple(self.cameras))
        if len(self.joints) < 1:
            raise ValidationFailure("need at least one joint")
        if self.robot_rate_hz < 1 or self.frame_rate_hz < 1:
            raise ValidationFailure("rates must be >= 1 Hz")
        if self.robot_rate_hz % self.frame_rate_hz != 0:
            raise ValidationFailure(
                f"robot rate {self.robot_rate_hz} must be an integer multiple of "
                f"frame rate {self.frame_rate_hz}"
            )
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValidationFailure(f"duration must be > 0, got {self.duration_s}")
        n = self.duration_s * self.robot_rate_hz
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise ValidationFailure(
                f"duration {self.duration_s}s is not a whole number of robot samples "
                f"at {self.robot_rate_hz} Hz"
            )
        if self.seed < 0:
            raise ValidationFailure(f"seed must be >= 0, got {self.seed}")
        if self.dt is not None:
            period = 1.0 / self.robot_rate_hz
            m = period / self.dt
            if abs(m - round(m)) > 1e-6 or round(m) < 1:
                raise ValidationFailure(
                    f"dt={self.dt} must divide the robot sample period {period} evenly"
                )
        for d in self.disturbances:
            if d.joint >= len(self.joints):
                raise ValidationFailure(
                    f"disturbance joint {d.joint} out of range for {len(self.joints)} joints"
                )
        if len(set(self.cameras)) != len(self.cameras) or not self.cameras:
            raise ValidationFailure(f"cameras must be unique and non-empty, got {self.cameras}")

    @property
    def joint_count(self) -> int:
        return len(self.joints)

    @property
    def ratio(self) -> int:
        return self.robot_rate_hz // self.frame_rate_hz

    @property
    def sample_count(self) -> int:
        return round(self.duration_s * self.robot_rate_hz)

    @property
    def frame_count(self) -> int:
        return (self.sample_count - 1) // self.ratio + 1

    @property
    def substeps(self) -> int:
        if self.dt is None:
            return 1
        return round(1.0 / (self.robot_rate_hz * self.dt))

    @property
    def dt_effective(self) -> float:
        return 1.0 / (self.robot_rate_hz * self.substeps)


@dataclass(frozen=True, eq=False)
class ArmState:
    """Kinematic state of one arm."""

    angle: np.ndarray
    velocity: np.ndarray

    @classmethod
    def zeros(cls, joint_count: int) -> "ArmState":
        return cls(np.zeros(joint_count), np.zeros(joint_count))


@dataclass(frozen=True, eq=False)
class ObserverState:
    """Per-arm observer filters; all zero at t = 0.

    dob_estimate   low-passed load torque at the DOB cutoff (feeds the command)
    rfob_lowpass   the same raw load signal filtered at the RFOB cutoff
    prev_velocity  velocity at the previous update, for the backward difference
    """

    dob_estimate: np.ndarray
    rfob_lowpass: np.ndarray
    prev_velocity: np.ndarray

    @classmethod
    def zeros(cls, joint_count: int) -> "ObserverState":
        return cls(np.zeros(joint_count), np.zeros(joint_count), np.zeros(joint_count))


@lru_cache(maxsize=32)
def _plant_vectors(joints: tuple[JointModel, ...]) -> tuple[np.ndarray, np.ndarray]:
    inertia = np.array([j.inertia for j in joints])
    viscous = np.array([j.viscous_friction for j in joints])
    return inertia, viscous


def _gravity(joints: tuple[JointModel, ...], angle: np.ndarray) -> np.ndarray:
    if all(j.gravity_torque_fn is None for j in joints):
        return np.zeros(len(joints))
    return np.array(
        [
            j.gravity_torque_fn(float(a)) if j.gravity_torque_fn else 0.0
            for j, a in zip(joints, angle)
        ]
    )


def dob_update(
    state: ObserverState,
    commanded_torque: np.ndarray,
    velocity: np.ndarray,
    joints: tuple[JointModel, ...],
    gains: ControllerGains,
    dt: float,
) -> ObserverState:
    """Advance both observer filters by one step of length dt.

    The raw load signal is commanded torque minus inertial torque, with
    acceleration taken as a backward difference of the measured velocity.
    It is low-passed twice in parallel: once at dob_cutoff (the estimate
    that feeds back into the command) and once at rfob_cutoff (consumed by
    rfob_update).  A constant positive load settles to a positive estimate.
    """
    inertia, _ = _plant_vectors(joints)
    raw = commanded_torque - inertia * (velocity - state.prev_velocity) / dt
    a_dob = math.exp(-gains.dob_cutoff * dt)
    a_rfob = math.exp(-gains.rfob_cutoff * dt)
    return ObserverState(
        dob_estimate=a_dob * state.dob_estimate + (1.0 - a_dob) * raw,
        rfob_lowpass=a_rfob * state.rfob_lowpass + (1.0 - a_rfob) * raw,
        prev_velocity=velocity.copy(),
    )


def rfob_update(
    load_estimate: np.ndarray,
    angle: np.ndarray,
    velocity: np.ndarray,
    joints: tuple[JointModel, ...],
) -> np.ndarray:
    """Reaction torque: load estimate minus modeled friction and gravity.

    Pure arithmetic on the supplied estimate (normally ObserverState's
    rfob_lowpass); given an exact load estimate and exact models, the
    result equals the torque the arm exerts on its surroundings.
    """
    _, viscous = _plant_vectors(joints)
    return load_estimate - viscous * velocity - _gravity(joints, angle)


def plant_step(
    state: ArmState,
    applied_torque: np.ndarray,
    joints: tuple[JointModel, ...],
    dt: float,
) -> ArmState:
    """Semi-implicit Euler step of the rigid-joint dynamics."""
    inertia, viscous = _plant_vectors(joints)
    accel = (applied_torque - viscous * state.velocity - _gravity(joints, state.angle)) / inertia
    velocity = state.velocity + dt * accel
    angle = state.angle + dt * velocity
    return ArmState(angle=angle, velocity=velocity)


def control_commands(
    leader: ArmState,
    follower: ArmState,
    leader_obs: ObserverState,
    follower_obs: ObserverState,
    joints: tuple[JointModel, ...],
    gains: ControllerGains,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Four-channel law: returns (leader cmd, follower cmd, leader tres, follower tres).

    The position/velocity gap maps to a differential acceleration reference
    (opposite signs on the two arms); the reaction-torque sum is squashed
    with the same sign on both arms; each command adds its own arm's DOB
    estimate to cancel the load it is carrying.
    """
    inertia, _ = _plant_vectors(joints)
    tres_l = rfob_update(leader_obs.rfob_lowpass, leader.angle, leader.velocity, joints)
    tres_f = rfob_update(follower_obs.rfob_lowpass, follower.angle, follower.velocity, joints)
    gap_accel = gains.kp * (leader.angle - follower.angle) + gains.kd * (
        leader.velocity - follower.velocity
    )
    torque_sum = tres_l + tres_f
    cmd_l = inertia * (-gap_accel / 2.0) - gains.kf * torque_sum / 2.0 + leader_obs.dob_estimate
    cmd_f = inertia * (+gap_accel / 2.0) - gains.kf * torque_sum / 2.0 + follower_obs.dob_estimate
    return cmd_l, cmd_f, tres_l, tres_f


@dataclass(frozen=True, eq=False)
class StepResult:
    leader: ArmState
    follower: ArmState
    leader_obs: ObserverState
    follower_obs: ObserverState
    leader_command: np.ndarray
    follower_command: np.ndarray
    leader_reaction: np.ndarray
    follower_reaction: np.ndarray


def bilateral_step(
    leader: ArmState,
    follower: ArmState,
    leader_obs: ObserverState,
    follower_obs: ObserverState,
    joints: tuple[JointModel, ...],
    gains: ControllerGains,
    dt: float,
    operator_torque: np.ndarray | None = None,
    environment_torque: np.ndarray | None = None,
    state_limit: float = STATE_LIMIT,
) -> StepResult:
    """One closed-loop step: control, integrate both plants, update observers.

    operator_torque acts externally on the leader, environment_torque on the
    follower.  Raises NumericalDivergence when any resulting angle or
    velocity is non-finite or exceeds state_limit in magnitude.
    """
    j = len(joints)
    op = np.zeros(j) if operator_torque is None else np.asarray(operator_torque, dtype=float)
    env = np.zeros(j) if environment_torque is None else np.asarray(environment_torque, dtype=float)
    cmd_l, cmd_f, tres_l, tres_f = control_commands(
        leader, follower, leader_obs, follower_obs, joints, gains
    )
    new_l = plant_step(leader, cmd_l + op, joints, dt)
    new_f = plant_step(follower, cmd_f + env, joints, dt)
    for name, st in (("leader", new_l), ("follower", new_f)):
        worst = max(np.max(np.abs(st.angle)), np.max(np.abs(st.velocity)))
        if not np.isfinite(worst) or worst > state_limit:
            raise NumericalDivergence(
                f"{name} state magnitude {worst:.3e} exceeds limit {state_limit:.3e}"
            )
    return StepResult(
        leader=new_l,
        follower=new_f,
        leader_obs=dob_update(leader_obs, cmd_l, new_l.velocity, joints, gains, dt),
        follower_obs=dob_update(follower_obs, cmd_f, new_f.velocity, joints, gains, dt),
        leader_command=cmd_l,
        follower_command=cmd_f,
        leader_reaction=tres_l,
        follower_reaction=tres_f,
    )


@dataclass(frozen=True)
class OperatorSchedule:
    """What the human operator does to the leader arm.

    mode "torque": value(t) is a torque applied directly to the leader.
    mode "reference": value(t) is a target angle; the operator tracks it
    with a fixed PD impedance (OPERATOR_KP, OPERATOR_KD).
    """

    name: str
    mode: str
    value: Callable[[float], np.ndarray]

    def __post_init__(self) -> None:
        if self.mode not in ("torque", "reference"):
            raise ValidationFailure(f"schedule mode must be torque|reference, got {self.mode!r}")


def _smoothstep(u: float) -> float:
    u = min(max(u, 0.0), 1.0)
    return u * u * (3.0 - 2.0 * u)


def scripted_trajectories(
    name: str, joint_count: int, duration_s: float = 1.0
) -> OperatorSchedule:
    """Build one of the named operator schedules.

    hold        zero operator torque; both arms stay at rest
    step        all joints step to a fixed target angle at STEP_TIME_S
    pick_sweep  smooth reach-then-return profile, amplitudes varying by joint
    """
    if name == "hold":
        zeros = np.zeros(joint_count)
        return OperatorSchedule(name="hold", mode="torque", value=lambda t: zeros)
    if name == "step":
        target = np.full(joint_count, STEP_ANGLE_RAD)
        zeros = np.zeros(joint_count)
        return OperatorSchedule(
            name="step",
            mode="reference",
            value=lambda t: target if t >= STEP_TIME_S else zeros,
        )
    if name == "pick_sweep":
        reach = np.array([0.25 + 0.1 * (i % 3) for i in range(joint_count)])
        settle = -0.5 * reach

        def profile(t: float) -> np.ndarray:
            u = t / duration_s
            up = _smoothstep((u - 0.05) / 0.30)
            back = _smoothstep((u - 0.55) / 0.30)
            return reach * up + (settle - reach) * back

        return OperatorSchedule(name="pick_sweep", mode="reference", value=profile)
    raise ValidationFailure(
        f"unknown trajectory {name!r}; expected one of {', '.join(TRAJECTORY_NAMES)}"
    )


@dataclass(frozen=True, eq=False)
class SimResult:
    """Episode plus traces the episode format does not carry."""

    episode: Episode
    leader_commands: np.ndarray  # (T, J) commanded torque at each sample
    follower_commands: np.ndarray
    max_position_gap: float  # max |leader - follower| angle over the run


def run_simulation(
    config: SimConfig,
    trajectory: str | OperatorSchedule,
    episode_id: str | None = None,
) -> SimResult:
    """Simulate one episode and return it with command traces.

    Joint streams record (angle, velocity, reaction torque) for both arms at
    robot_rate_hz; commanded torques are returned separately on the result.
    Camera frames fire every `ratio` samples and carry the follower joint
    angles packed little-endian, one identical payload per configured camera.
    The run is a pure function of (config, trajectory): the seed only scales
    the schedule amplitude per joint, uniformly in [0.9, 1.1].
    """
    sched = (
        trajectory
        if isinstance(trajectory, OperatorSchedule)
        else scripted_trajectories(trajectory, config.joint_count, config.duration_s)
    )
    if episode_id is None:
        episode_id = f"{sched.name}-{config.seed:05d}"

    jc = config.joint_count
    t_len = config.sample_count
    ratio = config.ratio
    dt = config.dt_effective
    substeps = config.substeps
    rng = np.random.default_rng(config.seed)
    amplitude = rng.uniform(0.9, 1.1, size=jc)

    leader = ArmState.zeros(jc)
    follower = ArmState.zeros(jc)
    leader_obs = ObserverState.zeros(jc)
    follower_obs = ObserverState.zeros(jc)

    rec_l = np.empty((t_len, jc, 3))
    rec_f = np.empty((t_len, jc, 3))
    cmd_l_trace = np.empty((t_len, jc))
    cmd_f_trace = np.empty((t_len, jc))
    frames: list[FrameRecord] = []
    max_gap = 0.0

    def external(t: float, arm: str) -> np.ndarray:
        out = np.zeros(jc)
        for d in config.disturbances:
            if d.arm == arm and d.start_s <= t < d.end_s:
                out[d.joint] += d.torque
        return out

    def operator(t: float) -> np.ndarray:
        if sched.mode == "torque":
            return amplitude * sched.value(t)
        ref = amplitude * sched.value(t)
        return OPERATOR_KP * (ref - leader.angle) - OPERATOR_KD * leader.velocity

    for k in range(t_len):
        cmd_l, cmd_f, tres_l, tres_f = control_commands(
            leader, follower, leader_obs, follower_obs, config.joints, config.gains
        )
        rec_l[k, :, 0], rec_l[k, :, 1], rec_l[k, :, 2] = leader.angle, leader.velocity, tres_l
        rec_f[k, :, 0], rec_f[k, :, 1], rec_f[k, :, 2] = follower.angle, follower.velocity, tres_f
        cmd_l_trace[k] = cmd_l
        cmd_f_trace[k] = cmd_f
        max_gap = max(max_gap, float(np.max(np.abs(leader.angle - follower.angle))))
        if k % ratio == 0:
            frames.append(
                FrameRecord(seq=k // ratio, payload=struct.pack(f"<{jc}d", *follower.angle))
            )
        if k + 1 == t_len:
            break
        for i in range(substeps):
            t = k / config.robot_rate_hz + i * dt
            res = bilateral_step(
                leader,
                follower,
                leader_obs,
                follower_obs,
                config.joints,
                config.gains,
                dt,
                operator_torque=operator(t) + external(t, "leader"),
                environment_torque=external(t, "follower"),
            )
            leader, follower = res.leader, res.follower
            leader_obs, follower_obs = res.leader_obs, res.follower_obs

    frame_streams = tuple(
        FrameStream(camera_id=cam, rate_hz=config.frame_rate_hz, records=tuple(frames))
        for cam in config.cameras
    )
    episode = Episode(
        episode_id=episode_id,
        leader=RobotStream(rate_hz=config.robot_rate_hz, data=rec_l),
        follower=RobotStream(rate_hz=config.robot_rate_hz, data=rec_f),
        frame_streams=frame_streams,
        meta={
            "task": sched.name,
            "seed": str(config.seed),
            "source": "bilateral-sim",
        },
    )
    return SimResult(
        episode=episode,
        leader_commands=cmd_l_trace,
        follower_commands=cmd_f_trace,
        max_position_gap=max_gap,
    )


def simulate_episode(
    config: SimConfig,
    trajectory: str | OperatorSchedule,
    episode_id: str | None = None,
) -> Episode:
    """Simulate one episode (see run_simulation for the recording contract)."""
    return run_simulation(config, trajectory, episode_id).episode


def default_sim_config() -> SimConfig:
    """Reference five-joint rig used by the bundled config and the tests."""
    return SimConfig(
        joints=tuple(JointModel(inertia=0.01, viscous_friction=0.05) for _ in range(5)),
        gains=ControllerGains(),
        robot_rate_hz=1000,
        frame_rate_hz=100,
        duration_s=1.0,
        seed=0,
    )


def sim_config_to_dict(config: SimConfig) -> dict:
    """JSON-friendly form of a config.  Gravity callables cannot be serialized."""
    if any(j.gravity_torque_fn is not None for j in config.joints):
        raise ValidationFailure("configs with gravity_torque_fn are not serializable")
    return {
        "joints": [
            {"inertia": j.inertia, "viscous_friction": j.viscous_friction}
            for j in config.joints
        ],
        "gains": {
            "kp": config.gains.kp,
            "kd": config.gains.kd,
            "kf": config.gains.kf,
            "dob_cutoff": config.gains.dob_cutoff,
            "rfob_cutoff": config.gains.rfob_cutoff,
        },
        "robot_rate_hz": config.robot_rate_hz,
        "frame_rate_hz": config.frame_rate_hz,
        "duration_s": config.duration_s,
        "seed": config.seed,
        "dt": config.dt,
        "disturbances": [
            {
                "joint": d.joint,
                "start_s": d.start_s,
                "end_s": d.end_s,
                "torque": d.torque,
                "arm": d.arm,
            }
            for d in config.disturbances
        ],
        "cameras": list(config.cameras),
    }


def sim_config_from_dict(raw: dict) -> SimConfig:
    try:
        joints = tuple(
            JointModel(
                inertia=float(j["inertia"]),
                viscous_friction=float(j.get("viscous_friction", 0.0)),
            )
            for j in raw["joints"]
        )
        gains_raw = raw.get("gains", {})
        gains = ControllerGains(
            **{k: float(v) for k, v in gains_raw.items()}
        )
        disturbances = tuple(
            Disturbance(
                joint=int(d["joint"]),
                start_s=float(d["start_s"]),
                end_s=float(d["end_s"]),
                torque=float(d["torque"]),
                arm=str(d.get("arm", "follower")),
            )
            for d in raw.get("disturbances", [])
        )
        dt = raw.get("dt")
        return SimConfig(
            joints=joints,
            gains=gains,
            robot_rate_hz=int(raw["robot_rate_hz"]),
            frame_rate_hz=int(raw["frame_rate_hz"]),
            duration_s=float(raw["duration_s"]),
            seed=int(raw.get("seed", 0)),
            dt=None if dt is None else float(dt),
            disturbances=disturbances,
            cameras=tuple(raw.get("cameras", ("overhead", "wrist"))),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad simulation config: {exc!r}") from exc


def load_sim_config(path: str | Path) -> SimConfig:
    """Read a SimConfig from a JSON file."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseFailure(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseFailure(f"config {path} must hold a JSON object")
    return sim_config_from_dict(raw)
