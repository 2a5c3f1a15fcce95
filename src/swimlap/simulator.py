"""Synthetic lap trials with exact ground truth for pipeline verification.

A trial is a sequence of motion phases (rest, accelerate, cruise, brake,
corner, glide) whose *planar* speed is piecewise smoothstep in time, so
planar distance has a closed form and the lap geometry (straight, 180-deg
arc, straight) is consumed exactly. Pitch is a pure fluking oscillation;
the body-frame speed the tag would measure is ``v_planar / cos(pitch)``.
All derivative channels (tangential acceleration, angular speed, normal
acceleration) are evaluated analytically, never by differencing.

Tag synthesis emits the 50 Hz inertial stream (gyro, specific force,
magnetic field in the body frame) and the 5 Hz depth/speed stream, with
independent seeded Gaussian noise per channel. The course starts at the
origin heading east; lap k runs out along y = 2R (k % 2) and back.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from itertools import groupby, repeat
from pathlib import Path

import numpy as np

from .ingest import (CSV_COLUMNS, IMU_FIELDS, MAG_FIELDS, TagSeries,
                     write_table)
from .params import AnimalParams, check_numbers, get_animal

IMU_RATE_HZ = 50.0
SLOW_RATE_HZ = 5.0
MAG_INCLINATION = math.radians(40.0)
ENVELOPE_RAMP_S = 0.4


class ScenarioError(ValueError):
    """Raised on an invalid scenario setting or an infeasible profile."""


@dataclass(frozen=True)
class NoiseSpec:
    """Per-channel Gaussian noise standard deviations (zero = noiseless)."""

    accel: float = 0.0   # m/s^2
    gyro: float = 0.0    # rad/s
    mag: float = 0.0     # unit field
    depth: float = 0.0   # m
    speed: float = 0.0   # m/s

    def __post_init__(self) -> None:
        check_numbers(self, [f.name for f in fields(self)],
                      lambda v: 0.0 <= v < math.inf, "a finite number >= 0",
                      prefix="noise.")


@dataclass(frozen=True)
class LapScenario:
    """Parameters of one simulated lap-swimming trial."""

    animal: AnimalParams
    straight_length: float = 30.0   # m, each leg
    corner_radius: float = 1.5      # m
    cruise_speed: float = 4.0       # m/s, planar
    corner_speed: float = 3.0       # m/s, planar, held through the arc
    accel: float = 0.8              # m/s^2, peak during speed transitions
    glide_decel: float = 1.2        # m/s^2, peak during the final glide
    corner_buffer_s: float = 0.8    # s at corner speed on both arc sides
    fluke_freq: float = 1.5         # Hz
    fluke_amp: float = math.radians(10.0)  # rad, pitch oscillation
    depth_station: float = 0.5      # m
    depth_out: float = 1.5          # m, outgoing leg
    depth_corner: float = 1.0       # m
    depth_return: float = 1.6       # m
    n_laps: int = 1
    speed_jitter: float = 0.0       # fractional lap-to-lap speed variation
    lead_in_s: float = 4.0          # s of rest before the first lap
    station_pause_s: float = 6.0    # s of rest (with turn-around) after laps
    noise: NoiseSpec = NoiseSpec()
    seed: int = 0

    def __post_init__(self) -> None:
        inf, whole = math.inf, numbers.Integral
        for names, ok, need in (
                (("straight_length", "corner_radius", "cruise_speed",
                  "corner_speed", "accel", "glide_decel", "fluke_freq"),
                 lambda v: 0.0 < v < inf, "a finite number > 0"),
                (("depth_station", "depth_out", "depth_corner", "depth_return",
                  "lead_in_s", "station_pause_s", "corner_buffer_s"),
                 lambda v: 0.0 <= v < inf, "a finite number >= 0"),
                # cos(pitch) divides the measured speed.
                (("fluke_amp",), lambda v: 0.0 <= v < 0.5 * math.pi,
                 "in [0, pi/2) rad"),
                (("speed_jitter",), lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
                (("n_laps",), lambda v: isinstance(v, whole) and v >= 1,
                 "an integer >= 1"),
                (("seed",), lambda v: isinstance(v, whole) and v >= 0,
                 "an integer >= 0")):
            check_numbers(self, names, ok, need)
        if self.corner_speed > self.cruise_speed:
            raise ScenarioError(
                "infeasible profile: corner_speed exceeds cruise_speed")


@dataclass(frozen=True)
class Phase:
    """One motion phase: planar speed v0 -> v1 over ``duration`` seconds."""

    duration: float
    v0: float
    v1: float
    fluking: bool
    depth0: float
    depth1: float
    yaw_turn: float = 0.0   # heading change while stationary, rad
    t0: float = 0.0         # absolute start time, filled at assembly
    s0: float = 0.0         # cumulative planar distance at start
    lap: int = 0            # lap the phase is drawn on, filled at assembly
    corner: bool = False    # the lap's 180-deg arc

    @property
    def distance(self) -> float:
        return 0.5 * (self.v0 + self.v1) * self.duration


@dataclass
class TruthLap:
    """Ground-truth event times for one simulated lap."""

    index: int
    t_motion_start: float
    t_apex: float
    t_motion_end: float
    turn_sign: float


@dataclass
class GroundTruth:
    """Analytic trial state sampled on the master (5 Hz) timeline."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    v_meas: np.ndarray
    v_xy: np.ndarray
    psi: np.ndarray
    theta: np.ndarray
    depth: np.ndarray
    a_t: np.ndarray
    omega: np.ndarray
    a_n: np.ndarray
    scenario: LapScenario
    phases: list[Phase]
    laps: list[TruthLap] = field(default_factory=list)
    path_length: float = 0.0


def _smoothstep(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def _smoothstep_d(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return 6.0 * x * (1.0 - x)


def _one_lap_phases(scn: LapScenario, v_c: float, v_t: float,
                    lap: int) -> list[Phase]:
    s_len = scn.straight_length
    t_accel = 1.5 * v_c / scn.accel
    t_brake = 1.5 * (v_c - v_t) / scn.accel if v_c > v_t else 0.0
    t_glide = 1.5 * v_c / scn.glide_decel
    arc_len = math.pi * scn.corner_radius

    d_accel = 0.5 * v_c * t_accel
    d_brake = 0.5 * (v_c + v_t) * t_brake
    d_buffer = v_t * scn.corner_buffer_s
    d_glide = 0.5 * v_c * t_glide

    d_out_cruise = s_len - d_accel - d_brake - d_buffer
    if d_out_cruise < -1e-9:
        raise ScenarioError(
            f"infeasible profile: outgoing leg needs "
            f"{d_accel + d_brake + d_buffer:.2f} m "
            f"but straight_length is {s_len:.2f} m")
    d_ret_cruise = s_len - d_buffer - d_brake - d_glide
    if d_ret_cruise < -1e-9:
        raise ScenarioError(
            f"infeasible profile: return leg needs "
            f"{d_buffer + d_brake + d_glide:.2f} m "
            f"but straight_length is {s_len:.2f} m")

    ds, do, dc, dr = (scn.depth_station, scn.depth_out, scn.depth_corner,
                      scn.depth_return)
    phases: list[Phase] = [
        Phase(t_accel, 0.0, v_c, True, ds, do),
        Phase(max(d_out_cruise, 0.0) / v_c, v_c, v_c, True, do, do),
        Phase(t_brake, v_c, v_t, True, do, dc),
        Phase(scn.corner_buffer_s, v_t, v_t, True, dc, dc),
        Phase(arc_len / v_t, v_t, v_t, True, dc, dc, corner=True),
        Phase(scn.corner_buffer_s, v_t, v_t, True, dc, dc),
        Phase(t_brake, v_t, v_c, True, dc, dr),
        Phase(max(d_ret_cruise, 0.0) / v_c, v_c, v_c, True, dr, dr),
        Phase(t_glide, v_c, 0.0, False, dr, ds),
    ]
    return [replace(ph, lap=lap) for ph in phases if ph.duration > 0.0]


def build_lap_phases(scn: LapScenario) -> list[Phase]:
    """Assemble the trial's phase list; raises on infeasible geometry.

    A station pause is drawn on the lap it turns toward; the pause after
    the last lap takes lap ``n_laps``, whose course is its start point.
    """
    ds = scn.depth_station
    factors = np.ones(scn.n_laps)
    if scn.speed_jitter > 0.0:
        rng = np.random.default_rng(scn.seed)
        factors += scn.speed_jitter * rng.uniform(-1.0, 1.0, scn.n_laps)

    phases: list[Phase] = [Phase(scn.lead_in_s, 0.0, 0.0, False, ds, ds)]
    for k in range(scn.n_laps):
        phases.extend(_one_lap_phases(scn, scn.cruise_speed * factors[k],
                                      scn.corner_speed * factors[k], k))
        phases.append(Phase(scn.station_pause_s, 0.0, 0.0, False, ds, ds,
                            yaw_turn=math.pi * (1 - 2 * (k % 2)),
                            lap=k + 1))

    t_cum = s_cum = 0.0
    stamped = []
    for ph in phases:
        stamped.append(replace(ph, t0=t_cum, s0=s_cum))
        t_cum += ph.duration
        s_cum += ph.distance
    return stamped


def _pitch(scn: LapScenario, phases: list[Phase],
           t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pitch and its rate: one fluking span per lap, up to its glide."""
    theta = np.zeros_like(t)
    dtheta = np.zeros_like(t)
    if scn.fluke_amp == 0.0:
        return theta, dtheta
    # A lap flukes from its start from rest to the start of its glide.
    t_on = np.array([ph.t0 for ph in phases if ph.fluking and ph.v0 == 0.0])
    t_off = np.array([ph.t0 for ph in phases
                      if not ph.fluking and ph.v0 > 0.0])
    span = np.searchsorted(t_on, t, side="right") - 1
    m = (span >= 0) & (t <= t_off[np.maximum(span, 0)])
    tt, on, off = t[m], t_on[span[m]], t_off[span[m]]
    r = np.minimum(ENVELOPE_RAMP_S, 0.5 * (off - on))
    eu = _smoothstep((tt - on) / r)
    eu_d = _smoothstep_d((tt - on) / r) / r
    ed = _smoothstep((off - tt) / r)
    ed_d = -_smoothstep_d((off - tt) / r) / r
    env = eu * ed
    env_d = eu_d * ed + eu * ed_d
    amp, freq = scn.fluke_amp, scn.fluke_freq
    phase = 2.0 * math.pi * freq * (tt - on)
    theta[m] = amp * env * np.sin(phase)
    dtheta[m] = amp * (env_d * np.sin(phase)
                       + env * 2.0 * math.pi * freq * np.cos(phase))
    return theta, dtheta


def _evaluate(scn: LapScenario, phases: list[Phase],
              t: np.ndarray) -> dict[str, np.ndarray]:
    """The trial's exact state at times ``t``, vectorized over samples."""
    idx = np.searchsorted([ph.t0 for ph in phases], t, side="right") - 1
    idx = np.clip(idx, 0, len(phases) - 1)

    dur, v0, v1, t0, s0, d0, d1, yaw_turn, lap = (
        np.array([getattr(ph, name) for ph in phases])[idx] for name in (
            "duration", "v0", "v1", "t0", "s0", "depth0", "depth1",
            "yaw_turn", "lap"))

    with np.errstate(invalid="ignore", divide="ignore"):
        x = np.where(dur > 0.0, (t - t0) / dur, 1.0)
    x = np.clip(x, 0.0, 1.0)
    ss, ssd, ssdd = _smoothstep(x), _smoothstep_d(x), 6.0 - 12.0 * x
    v_xy = v0 + (v1 - v0) * ss
    with np.errstate(invalid="ignore", divide="ignore"):
        dv_xy = np.where(dur > 0.0, (v1 - v0) * ssd / dur, 0.0)
        dddepth = np.where(dur > 0.0, (d1 - d0) * ssdd / dur ** 2, 0.0)
        dyaw = np.where(dur > 0.0, yaw_turn * ssd / dur, 0.0)
    # Closed-form planar distance within the phase.
    s = s0 + dur * (v0 * x + (v1 - v0) * (x ** 3 - 0.5 * x ** 4))
    depth = d0 + (d1 - d0) * ss

    theta, dtheta = _pitch(scn, phases, t)
    cos_t = np.cos(theta)
    v_meas = v_xy / cos_t
    a_t = dv_xy / cos_t + v_xy * dtheta * np.sin(theta) / cos_t ** 2

    # The course in the distance into the lap: out along y = 2R odd,
    # a half turn toward the other side, and back.
    length, radius = scn.straight_length, scn.corner_radius
    arc_len = math.pi * radius
    lap_len = 2.0 * length + arc_len
    odd = lap % 2
    sign = 1 - 2 * odd
    sl = np.clip(s - lap * lap_len, 0.0, lap_len)
    phi = np.clip((sl - length) / radius, 0.0, math.pi)
    px = (np.minimum(sl, length) + radius * np.sin(phi)
          - np.maximum(sl - length - arc_len, 0.0))
    py = 2.0 * radius * odd + sign * radius * (1.0 - np.cos(phi))
    on_arc = (sl >= length) & (sl < length + arc_len)
    omega = np.where(on_arc, sign * v_xy / radius, 0.0)
    # Station turn-around: yaw sweeps into the lap's heading while the
    # position holds.
    hold = yaw_turn != 0.0
    psi = 2.0 * math.pi * odd + sign * phi + np.where(
        hold, yaw_turn * (ss - 1.0), 0.0)
    omega = np.where(hold, dyaw, omega)
    return {
        "t": t, "x": px, "y": py, "v_meas": v_meas, "v_xy": v_xy,
        "psi": psi, "theta": theta, "dtheta": dtheta, "depth": depth,
        "dddepth": dddepth, "a_t": a_t,
        "omega": omega, "a_n": omega * v_meas, "dv_xy": dv_xy,
    }


def _time_grid(phases: list[Phase], rate: float) -> np.ndarray:
    t_total = phases[-1].t0 + phases[-1].duration
    dt = 1.0 / rate
    return np.arange(int(math.floor(t_total / dt)) + 1) * dt


def generate_truth(scenario: LapScenario) -> GroundTruth:
    """Evaluate the scenario's exact state on the 5 Hz master timeline."""
    phases = build_lap_phases(scenario)
    t = _time_grid(phases, SLOW_RATE_HZ)
    ch = _evaluate(scenario, phases, t)

    laps = []
    motion = (ph for ph in phases if not (ph.v0 == ph.v1 == 0.0))
    for k, group in groupby(motion, key=lambda ph: ph.lap):
        lap = list(group)
        arc = next(ph for ph in lap if ph.corner)
        laps.append(TruthLap(
            index=k,
            t_motion_start=lap[0].t0,
            t_apex=arc.t0 + 0.5 * arc.duration,
            t_motion_end=lap[-1].t0 + lap[-1].duration,
            turn_sign=1.0 - 2.0 * (k % 2),
        ))

    lap_len = 2.0 * scenario.straight_length + math.pi * scenario.corner_radius
    return GroundTruth(
        t=t, x=ch["x"], y=ch["y"], v_meas=ch["v_meas"], v_xy=ch["v_xy"],
        psi=ch["psi"], theta=ch["theta"], depth=ch["depth"], a_t=ch["a_t"],
        omega=ch["omega"], a_n=ch["a_n"], laps=laps,
        path_length=scenario.n_laps * lap_len,
        scenario=scenario, phases=phases,
    )


def synthesize_tag(truth: GroundTruth) -> TagSeries:
    """Emit the raw tag channels (50 Hz IMU + 5 Hz depth/speed) for a trial.

    Deterministic for a fixed scenario seed; noise is independent Gaussian
    per channel.
    """
    scn = truth.scenario
    rng = np.random.default_rng(scn.seed)

    t_imu = _time_grid(truth.phases, IMU_RATE_HZ)
    ch = _evaluate(scn, truth.phases, t_imu)

    theta, psi = ch["theta"], ch["psi"]
    dpsi = ch["omega"]
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    gyro = np.column_stack([
        dpsi * sin_t,
        -ch["dtheta"],
        dpsi * cos_t,
    ])

    # World-frame specific force = rigid-body acceleration + gravity (up).
    v_xy, dv_xy = ch["v_xy"], ch["dv_xy"]
    sin_p, cos_p = np.sin(psi), np.cos(psi)
    a_wx = dv_xy * cos_p - v_xy * dpsi * sin_p
    a_wy = dv_xy * sin_p + v_xy * dpsi * cos_p
    a_wz = -ch["dddepth"]
    f_wx, f_wy, f_wz = a_wx, a_wy, a_wz + scn.animal.g
    # Body frame: undo yaw, then pitch (roll is zero throughout).
    w1x = cos_p * f_wx + sin_p * f_wy
    w1y = -sin_p * f_wx + cos_p * f_wy
    accel = np.column_stack([
        cos_t * w1x + sin_t * f_wz,
        w1y,
        -sin_t * w1x + cos_t * f_wz,
    ])

    m_w = np.array([math.cos(MAG_INCLINATION), 0.0,
                    -math.sin(MAG_INCLINATION)])
    m1x = cos_p * m_w[0] + sin_p * m_w[1]
    m1y = -sin_p * m_w[0] + cos_p * m_w[1]
    mag = np.column_stack([
        cos_t * m1x + sin_t * m_w[2],
        m1y,
        -sin_t * m1x + cos_t * m_w[2],
    ])

    if scn.noise.accel > 0.0:
        accel = accel + rng.normal(0.0, scn.noise.accel, accel.shape)
    if scn.noise.gyro > 0.0:
        gyro = gyro + rng.normal(0.0, scn.noise.gyro, gyro.shape)
    if scn.noise.mag > 0.0:
        mag = mag + rng.normal(0.0, scn.noise.mag, mag.shape)

    # The slow stream is sampled on the truth's own 5 Hz grid.
    depth, speed = truth.depth, truth.v_meas
    if scn.noise.depth > 0.0:
        depth = depth + rng.normal(0.0, scn.noise.depth, depth.shape)
    if scn.noise.speed > 0.0:
        speed = speed + rng.normal(0.0, scn.noise.speed, speed.shape)
    depth = np.maximum(depth, 0.0)
    speed = np.maximum(speed, 0.0)

    return TagSeries(
        t_imu=t_imu, accel=accel, gyro=gyro, mag=mag,
        t_slow=truth.t, depth=depth, speed=speed,
    )


def simulate(scenario: LapScenario) -> tuple[GroundTruth, TagSeries]:
    truth = generate_truth(scenario)
    return truth, synthesize_tag(truth)


# Preset trials approximating each study animal's observed lap style
# (cruise/corner speeds, cornering radius, accelerations, glide length).
_PRESETS = {
    "TT01": dict(cruise_speed=2.9, corner_speed=2.63, corner_radius=1.3,
                 accel=0.35, glide_decel=0.55, straight_length=34.0,
                 n_laps=8, speed_jitter=0.03),
    "TT02": dict(cruise_speed=5.2, corner_speed=3.53, corner_radius=1.8,
                 accel=1.1, glide_decel=1.0, straight_length=36.0,
                 n_laps=8, speed_jitter=0.03),
    "TT03": dict(cruise_speed=4.2, corner_speed=2.30, corner_radius=1.1,
                 accel=0.85, glide_decel=1.5, straight_length=33.0,
                 n_laps=8, speed_jitter=0.03),
}


def preset_scenario(name: str, **overrides) -> LapScenario:
    """Scenario tuned to one of the study animals (TT01, TT02, TT03)."""
    if name not in _PRESETS:
        raise ScenarioError(
            f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    kwargs = dict(_PRESETS[name])
    kwargs.update(overrides)
    return LapScenario(animal=get_animal(name), **kwargs)


TRUTH_COLUMNS = ("t", "x", "y", "v_meas", "v_xy", "psi", "theta",
                 "depth", "a_t", "omega", "a_n")


def _spread(values: np.ndarray, mask: np.ndarray):
    """``values`` on the rows where ``mask`` holds, empty cells elsewhere.

    A mask that holds on every row gives the float array itself, which the
    table codec formats as one float column.
    """
    if mask.all():
        return values
    cells = iter(values)
    return (next(cells) if on else "" for on in mask)


def write_tag_csv(tag: TagSeries, path: str | Path) -> None:
    """Write the standard ingest-schema CSV (empty cells off-rate).

    One row per distinct time (to the microsecond) of either rate, in time
    order; the ``temp`` column stays empty.
    """
    keys_imu = np.round(tag.t_imu, 6)
    keys_slow = np.round(tag.t_slow, 6)
    keys = np.union1d(keys_imu, keys_slow)
    on_imu = np.isin(keys, keys_imu)
    on_slow = np.isin(keys, keys_slow)
    t = np.empty(len(keys))
    t[on_slow] = tag.t_slow
    t[on_imu] = tag.t_imu

    imu = dict(zip(IMU_FIELDS + MAG_FIELDS,
                   [*tag.accel.T, *tag.gyro.T,
                    *(tag.mag.T if tag.mag is not None else ())]))
    columns = {"t": t, **{n: _spread(v, on_imu) for n, v in imu.items()},
               "depth": _spread(tag.depth, on_slow),
               "speed": _spread(tag.speed, on_slow)}
    write_table(path, {n: columns.get(n, repeat("", len(keys)))
                       for n in CSV_COLUMNS})


def write_truth_csv(truth: GroundTruth, path: str | Path) -> None:
    write_table(path, {c: getattr(truth, c) for c in TRUTH_COLUMNS})


def write_truth_laps_csv(truth: GroundTruth, path: str | Path) -> None:
    write_table(path, {"lap": [lap.index for lap in truth.laps], **{
        c: [getattr(lap, c) for lap in truth.laps]
        for c in ("t_motion_start", "t_apex", "t_motion_end", "turn_sign")}})
