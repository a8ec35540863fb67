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
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NumericalDivergence, ParseFailure, ValidationFailure
from .model import Episode, FrameStream, RobotStream, _check_camera_id, exact_ratio
from .model import _json_float, _json_int, _json_str

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
        exact_ratio(self.robot_rate_hz, self.frame_rate_hz)
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
        for camera in self.cameras:
            _check_camera_id(camera)

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


@dataclass(frozen=True, eq=False)
class _Plant:
    """Per-joint model vectors, built once per episode rather than per step.

    gravity_fns is None when no joint has a gravity hook; the gravity term is
    then skipped, which is exact because x - 0.0 == x for every float x.
    """

    inertia: np.ndarray
    viscous: np.ndarray
    gravity_fns: tuple[Callable[[float], float] | None, ...] | None

    @classmethod
    def of(cls, joints: tuple[JointModel, ...]) -> "_Plant":
        fns = tuple(j.gravity_torque_fn for j in joints)
        return cls(
            inertia=np.array([j.inertia for j in joints]),
            viscous=np.array([j.viscous_friction for j in joints]),
            gravity_fns=fns if any(fn is not None for fn in fns) else None,
        )

    def minus_gravity(self, torque: np.ndarray, angle: np.ndarray) -> np.ndarray:
        """torque - gravity(angle) over (..., J); hooks are scalar, so this runs per joint."""
        if self.gravity_fns is None:
            return torque
        gravity = np.zeros(np.shape(angle))
        for idx in np.ndindex(gravity.shape):
            fn = self.gravity_fns[idx[-1]]
            if fn is not None:
                gravity[idx] = fn(float(angle[idx]))
        return torque - gravity


# The array helpers below hold the one copy of the physics.  They work on
# seed- and arm-stacked (N, 2, J) arrays: row n is one seed, and within it
# arm 0 is the leader and arm 1 the follower.  run_simulations steps N seeds
# at once; the public per-step functions are thin wrappers over a batch of
# one.  Every operation is elementwise and keeps the operation order of the
# scalar formulas in its wrapper's docstring, so each row agrees bit for bit
# with a run of that seed alone.

_ARM_NAMES = ("leader", "follower")
_ARM_SIGN = np.array([[-1.0], [1.0]])  # the gap pulls the two arms toward each other


def _decay(gains: ControllerGains, dt: float) -> tuple[float, float, float, float]:
    """(a, 1 - a) of the zero-order-hold low-pass at the DOB, then the RFOB cutoff."""
    a_dob = math.exp(-gains.dob_cutoff * dt)
    a_rfob = math.exp(-gains.rfob_cutoff * dt)
    return a_dob, 1.0 - a_dob, a_rfob, 1.0 - a_rfob


def _observe(
    inertia: np.ndarray,
    decay: tuple[float, float, float, float],
    dob_estimate: np.ndarray,
    rfob_lowpass: np.ndarray,
    prev_velocity: np.ndarray,
    commanded_torque: np.ndarray,
    velocity: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    a_dob, b_dob, a_rfob, b_rfob = decay
    raw = commanded_torque - inertia * (velocity - prev_velocity) / dt
    return a_dob * dob_estimate + b_dob * raw, a_rfob * rfob_lowpass + b_rfob * raw


def _reaction(
    plant: _Plant, load_estimate: np.ndarray, angle: np.ndarray, velocity: np.ndarray
) -> np.ndarray:
    return plant.minus_gravity(load_estimate - plant.viscous * velocity, angle)


def _plant_step(
    plant: _Plant, angle: np.ndarray, velocity: np.ndarray, applied_torque: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    accel = plant.minus_gravity(applied_torque - plant.viscous * velocity, angle) / plant.inertia
    velocity = velocity + dt * accel
    return angle + dt * velocity, velocity


def _commands(
    plant: _Plant,
    gains: ControllerGains,
    angle: np.ndarray,
    velocity: np.ndarray,
    dob_estimate: np.ndarray,
    reaction: np.ndarray,
) -> np.ndarray:
    """Commands of both arms from (N, 2, J) state, observer and reaction arrays."""
    gap = angle[:, 0] - angle[:, 1]
    gap_accel = gains.kp * gap + gains.kd * (velocity[:, 0] - velocity[:, 1])
    torque_sum = reaction[:, 0] + reaction[:, 1]
    # -1.0 * (g / 2.0) is bit-identical to (-g) / 2.0: halving rounds symmetrically
    return (
        plant.inertia * (_ARM_SIGN * (gap_accel[:, None] / 2.0))
        - gains.kf * torque_sum[:, None] / 2.0
        + dob_estimate
    )


def _check_divergence(angle: np.ndarray, velocity: np.ndarray) -> None:
    """Raise NumericalDivergence if an arm's (N, 2, J) state is non-finite or beyond STATE_LIMIT.

    The message names the first failing arm in seed order, the leader before
    the follower.  NaN fails the comparison, so it raises too.
    """
    worst = np.maximum(np.abs(angle), np.abs(velocity))
    if worst.max() <= STATE_LIMIT:
        return
    per_arm = worst.max(-1).ravel()
    first = int(np.argmin(per_arm <= STATE_LIMIT))
    raise NumericalDivergence(
        f"{_ARM_NAMES[first % 2]} state magnitude {per_arm[first]:.3e} "
        f"exceeds limit {STATE_LIMIT:.3e}"
    )


def _substep(
    plant: _Plant,
    decay: tuple[float, float, float, float],
    angle: np.ndarray,
    velocity: np.ndarray,
    dob_estimate: np.ndarray,
    rfob_lowpass: np.ndarray,
    prev_velocity: np.ndarray,
    cmd: np.ndarray,
    external: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Integrate both arms under cmd + external, check divergence, update the observers.

    Returns the new (angle, velocity, dob_estimate, rfob_lowpass), each (N, 2, J).
    """
    angle, velocity = _plant_step(plant, angle, velocity, cmd + external, dt)
    _check_divergence(angle, velocity)
    dob_estimate, rfob_lowpass = _observe(
        plant.inertia, decay, dob_estimate, rfob_lowpass, prev_velocity, cmd, velocity, dt
    )
    return angle, velocity, dob_estimate, rfob_lowpass


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

        raw  = commanded_torque - inertia * (velocity - prev_velocity) / dt
        next = a * estimate + (1 - a) * raw,   a = exp(-cutoff * dt)
    """
    dob, rfob = _observe(
        _Plant.of(joints).inertia,
        _decay(gains, dt),
        state.dob_estimate,
        state.rfob_lowpass,
        state.prev_velocity,
        commanded_torque,
        velocity,
        dt,
    )
    return ObserverState(dob_estimate=dob, rfob_lowpass=rfob, prev_velocity=velocity.copy())


def rfob_update(
    load_estimate: np.ndarray,
    angle: np.ndarray,
    velocity: np.ndarray,
    joints: tuple[JointModel, ...],
) -> np.ndarray:
    """Reaction torque: load estimate minus modeled friction and gravity.

    Pure arithmetic on the supplied estimate (normally ObserverState's
    rfob_lowpass); given an exact load estimate and exact models, the
    result equals the torque the arm exerts on its surroundings:
    load_estimate - viscous * velocity - gravity(angle).
    """
    return _reaction(_Plant.of(joints), load_estimate, angle, velocity)


def plant_step(
    state: ArmState,
    applied_torque: np.ndarray,
    joints: tuple[JointModel, ...],
    dt: float,
) -> ArmState:
    """Semi-implicit Euler step of the rigid-joint dynamics.

        accel    = (applied_torque - viscous * velocity - gravity(angle)) / inertia
        velocity = velocity + dt * accel;  angle = angle + dt * velocity
    """
    angle, velocity = _plant_step(
        _Plant.of(joints), state.angle, state.velocity, applied_torque, dt
    )
    return ArmState(angle=angle, velocity=velocity)


def _stacked_control(
    leader: ArmState,
    follower: ArmState,
    leader_obs: ObserverState,
    follower_obs: ObserverState,
    joints: tuple[JointModel, ...],
    gains: ControllerGains,
) -> tuple[_Plant, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stack the two arms' states and apply the control law.

    Returns (plant, angle, velocity, dob_estimate, rfob_lowpass, reaction,
    command), the arrays (1, 2, J): a batch of one with the leader in arm 0.
    """
    plant = _Plant.of(joints)
    angle = np.stack((leader.angle, follower.angle))[None]
    velocity = np.stack((leader.velocity, follower.velocity))[None]
    dob = np.stack((leader_obs.dob_estimate, follower_obs.dob_estimate))[None]
    rfob = np.stack((leader_obs.rfob_lowpass, follower_obs.rfob_lowpass))[None]
    reaction = _reaction(plant, rfob, angle, velocity)
    cmd = _commands(plant, gains, angle, velocity, dob, reaction)
    return plant, angle, velocity, dob, rfob, reaction, cmd


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
    estimate to cancel the load it is carrying:

        gap_accel = kp * (angle_l - angle_f) + kd * (velocity_l - velocity_f)
        cmd_l = inertia * (-gap_accel / 2) - kf * (tres_l + tres_f) / 2 + dob_l
        cmd_f = inertia * (+gap_accel / 2) - kf * (tres_l + tres_f) / 2 + dob_f
    """
    *_, reaction, cmd = _stacked_control(leader, follower, leader_obs, follower_obs, joints, gains)
    return cmd[0, 0], cmd[0, 1], reaction[0, 0], reaction[0, 1]


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
) -> StepResult:
    """One closed-loop step: control, integrate both plants, update observers.

    operator_torque acts externally on the leader, environment_torque on the
    follower.  Raises NumericalDivergence when any resulting angle or
    velocity is non-finite or exceeds STATE_LIMIT in magnitude (the leader
    is checked first).
    """
    plant, angle, velocity, dob, rfob, reaction, cmd = _stacked_control(
        leader, follower, leader_obs, follower_obs, joints, gains
    )
    external = np.zeros((1, 2, len(joints)))
    if operator_torque is not None:
        external[0, 0] = operator_torque
    if environment_torque is not None:
        external[0, 1] = environment_torque
    new_angle, new_velocity, new_dob, new_rfob = _substep(
        plant,
        _decay(gains, dt),
        angle,
        velocity,
        dob,
        rfob,
        np.stack((leader_obs.prev_velocity, follower_obs.prev_velocity))[None],
        cmd,
        external,
        dt,
    )
    arms = [ArmState(angle=new_angle[0, r], velocity=new_velocity[0, r]) for r in (0, 1)]
    observers = [
        ObserverState(new_dob[0, r], new_rfob[0, r], new_velocity[0, r].copy()) for r in (0, 1)
    ]
    return StepResult(
        leader=arms[0],
        follower=arms[1],
        leader_obs=observers[0],
        follower_obs=observers[1],
        leader_command=cmd[0, 0],
        follower_command=cmd[0, 1],
        leader_reaction=reaction[0, 0],
        follower_reaction=reaction[0, 1],
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


def run_simulation(config: SimConfig, trajectory: str | OperatorSchedule) -> SimResult:
    """Simulate one episode and return it with command traces.

    Joint streams record (angle, velocity, reaction torque) for both arms at
    robot_rate_hz; commanded torques are returned separately on the result.
    Camera frames fire every `ratio` samples and carry the follower joint
    angles packed little-endian, one identical payload per configured camera.
    The run is a pure function of (config, trajectory): the seed only scales
    the schedule amplitude per joint, uniformly in [0.9, 1.1].  This is
    run_simulations over the one seed config.seed.
    """
    return run_simulations(config, trajectory, [config.seed])[0]


def run_simulations(
    config: SimConfig,
    trajectory: str | OperatorSchedule,
    seeds: Sequence[int],
) -> list[SimResult]:
    """Simulate one episode per seed, all seeds stepped together; results in seed order.

    config.seed is replaced by each seed in turn, and each seed is checked
    the way SimConfig checks its own.  The N seeds run as (N, 2, J) arrays,
    one loop over the samples; every operation is elementwise, so each
    result is byte-identical to run_simulation on that seed alone (see it
    for the recording contract).  Raises NumericalDivergence as soon as any
    seed diverges, with the message of the first seed, in the order given,
    whose state crossed the limit at that substep; no result is returned.
    """
    return list(_simulations(config, trajectory, seeds))


def _simulations(
    config: SimConfig,
    trajectory: str | OperatorSchedule,
    seeds: Sequence[int],
) -> Iterator[SimResult]:
    """run_simulations' results, each seed's built only when it is asked for.

    The whole batch is stepped at the first next(), so a divergence is raised
    there, before any result exists.  Each result then copies its seed's
    streams and commands out of the batch buffers, so a caller that drops
    each result before taking the next holds the buffers and one seed's copies.
    """
    configs = [replace(config, seed=seed) for seed in seeds]
    if not configs:
        return
    sched = (
        trajectory
        if isinstance(trajectory, OperatorSchedule)
        else scripted_trajectories(trajectory, config.joint_count, config.duration_s)
    )

    n = len(configs)
    jc = config.joint_count
    t_len = config.sample_count
    ratio = config.ratio
    dt = config.dt_effective
    substeps = config.substeps
    amplitude = np.array(
        [np.random.default_rng(c.seed).uniform(0.9, 1.1, size=jc) for c in configs]
    )

    plant = _Plant.of(config.joints)
    gains = config.gains
    decay = _decay(gains, dt)
    reference = sched.mode == "reference"
    pushes = [
        (_ARM_NAMES.index(d.arm), d.joint, d.start_s, d.end_s, d.torque)
        for d in config.disturbances
    ]

    angle = np.zeros((n, 2, jc))
    velocity = np.zeros((n, 2, jc))
    dob = np.zeros((n, 2, jc))
    rfob = np.zeros((n, 2, jc))
    streams = np.empty((n, 2, t_len, jc, 3))
    commands = np.empty((n, 2, t_len, jc))

    for k in range(t_len):
        reaction = _reaction(plant, rfob, angle, velocity)
        cmd = _commands(plant, gains, angle, velocity, dob, reaction)
        streams[:, :, k, :, 0] = angle
        streams[:, :, k, :, 1] = velocity
        streams[:, :, k, :, 2] = reaction
        commands[:, :, k] = cmd
        if k + 1 == t_len:
            break
        for i in range(substeps):
            t = k / config.robot_rate_hz + i * dt
            if i:
                reaction = _reaction(plant, rfob, angle, velocity)
                cmd = _commands(plant, gains, angle, velocity, dob, reaction)
            operator = amplitude * sched.value(t)
            if reference:
                operator = OPERATOR_KP * (operator - angle[:, 0]) - OPERATOR_KD * velocity[:, 0]
            external = np.zeros((n, 2, jc))
            for arm, joint, start_s, end_s, torque in pushes:
                if start_s <= t < end_s:
                    external[:, arm, joint] += torque
            # added even where the disturbance is zero, as -0.0 + 0.0 is +0.0
            external[:, 0] = operator + external[:, 0]
            # the observers' previous velocity is always the one this step starts from
            angle, velocity, dob, rfob = _substep(
                plant, decay, angle, velocity, dob, rfob, velocity, cmd, external, dt
            )

    # each seed's frame file as one record array (docs/format.md): every frame carries
    # the follower angles of its anchor sample, little-endian
    anchors = streams[:, 1, ::ratio, :, 0]
    record = np.dtype([("seq", "<u8"), ("length", "<u8"), ("payload", "<f8", jc)])
    frames = np.empty(anchors.shape[:2], record)
    frames["seq"] = np.arange(frames.shape[1])
    frames["length"] = record["payload"].itemsize
    frames["payload"] = anchors
    for c, seed_streams, seed_commands, seed_frames in zip(configs, streams, commands, frames):
        angles = seed_streams[..., 0]
        max_gap = np.abs(angles[0] - angles[1]).max()
        packed = seed_frames.tobytes()
        episode = Episode(
            episode_id=f"{sched.name}-{c.seed:05d}",
            leader=RobotStream(rate_hz=config.robot_rate_hz, data=seed_streams[0]),
            follower=RobotStream(rate_hz=config.robot_rate_hz, data=seed_streams[1]),
            frame_streams=tuple(
                FrameStream.from_packed(cam, config.frame_rate_hz, packed)
                for cam in config.cameras
            ),
            meta={"task": sched.name, "seed": str(c.seed), "source": "bilateral-sim"},
        )
        # this seed's own copy: a view would keep the whole batch's buffer alive
        seed_commands = seed_commands.copy()
        seed_commands.setflags(write=False)
        yield SimResult(
            episode=episode,
            leader_commands=seed_commands[0],
            follower_commands=seed_commands[1],
            max_position_gap=float(max_gap),
        )
        # so that this seed's copies are gone before the next seed's are made
        del packed, episode, seed_commands


def simulate_episode(config: SimConfig, trajectory: str | OperatorSchedule) -> Episode:
    """Simulate one episode (see run_simulation for the recording contract)."""
    return run_simulation(config, trajectory).episode


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
    return asdict(
        config,
        dict_factory=lambda items: {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in items
            if k != "gravity_torque_fn"
        },
    )


def sim_config_from_dict(raw: dict) -> SimConfig:
    try:
        joints = tuple(
            JointModel(
                inertia=_json_float(j, "inertia"),
                viscous_friction=(
                    _json_float(j, "viscous_friction") if "viscous_friction" in j else 0.0
                ),
            )
            for j in raw["joints"]
        )
        gains_raw = raw.get("gains", {})
        gains = ControllerGains(
            **{k: _json_float(gains_raw, k) for k in gains_raw.keys()}
        )
        disturbances = tuple(
            Disturbance(
                joint=_json_int(d, "joint"),
                start_s=_json_float(d, "start_s"),
                end_s=_json_float(d, "end_s"),
                torque=_json_float(d, "torque"),
                arm=_json_str(d, "arm") if "arm" in d else "follower",
            )
            for d in raw.get("disturbances", [])
        )
        cameras = raw.get("cameras", ["overhead", "wrist"])
        if not isinstance(cameras, list):
            raise TypeError(f"cameras must be a list, got {type(cameras).__name__}")
        return SimConfig(
            joints=joints,
            gains=gains,
            robot_rate_hz=_json_int(raw, "robot_rate_hz"),
            frame_rate_hz=_json_int(raw, "frame_rate_hz"),
            duration_s=_json_float(raw, "duration_s"),
            seed=_json_int(raw, "seed") if "seed" in raw else 0,
            dt=None if raw.get("dt") is None else _json_float(raw, "dt"),
            disturbances=disturbances,
            cameras=tuple(cameras),
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseFailure(f"bad simulation config: {exc!r}") from exc


def load_sim_config(path: str | Path) -> SimConfig:
    """Read a SimConfig from a JSON file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseFailure(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseFailure(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseFailure(f"config {path} must hold a JSON object")
    return sim_config_from_dict(raw)
