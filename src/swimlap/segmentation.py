"""Lap boundaries, cornering events, swim-phase labels, lap normalization.

A lap is a run of the smoothed speed above ``v_start``, from a sustained
rise to a sustained fall, whose smoothed heading turns by more than
``TURN_MIN``: the medians of ``psi`` over the run's first and last
``EDGE_N`` samples differ by that much. The cornering event ``t_c`` is
the half-turn instant, where ``psi`` crosses the mean of those two
medians (linear interpolation between samples); its corner sample is the
one nearest to it. The turn window is bounded where |normal acceleration|
drops to 55 % of its value at the corner sample on either side (sub-sample
crossings by linear interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energetics import PowerSeries, thrust_work
from .ingest import moving_average
from .kinematics import KinematicState
from .params import check_numbers

REST, TRANSIENT, CONSISTENT, GLIDE = 0, 1, 2, 3

# The phase classes of the per-lap statistics, by the labels each holds
# (active fluking, consistent speed, transient), and the statistics: each
# lap record has a ``<class>_<stat>`` value for every pair.
PHASE_CLASSES = {"af": (TRANSIENT, CONSISTENT), "cs": (CONSISTENT,),
                 "trans": (TRANSIENT,)}
CLASS_STATS = ("mean_speed_ms", "mean_power_w", "mean_cot")

START_SUSTAIN_S = 1.0    # s above threshold to open a lap
END_SUSTAIN_S = 2.0      # s below threshold to close a lap
THETA_OSC = np.radians(5.0)   # rad, fluking pitch amplitude
OSC_WINDOW_S = 2.0       # s, sliding window for oscillation
TRANS_SUSTAIN_S = 1.0    # s, sustain for transient labeling
MIN_PHASE_S = 0.6        # s, shorter phases merge into neighbor
TURN_MIN = 0.75 * np.pi  # rad, heading change that makes a run a lap
EDGE_N = 10              # samples at each run end that give its heading
TURN_LEVEL = 0.55        # fraction of the corner's |a_n| bounding the turn
# The percentage points of a normalized lap.
PCT_GRID = np.linspace(0.0, 100.0, 201)
PCT_GRID.flags.writeable = False


@dataclass(frozen=True)
class SegmentationConfig:
    """The two run-settable detection thresholds."""

    v_start: float = 0.5            # m/s, lap start/end speed threshold
    a_thresh: float = 0.2           # m/s^2, transient |a_t| threshold

    def __post_init__(self) -> None:
        check_numbers(self, ("v_start", "a_thresh"),
                      lambda v: 0.0 < v < np.inf, "a finite number > 0",
                      prefix="segmentation.")


@dataclass
class LapEvents:
    """Times (s) of one lap's boundary and cornering events.

    The lap owns the samples ``window`` = [start_idx, end_idx); ``t_e`` is
    the instant one sample past the last of them, so ``duration`` is the
    window length times the sample period.
    """

    t_s: float
    t_c: float
    t_e: float
    turn_start: float
    turn_end: float
    start_idx: int = 0
    corner_idx: int = 0
    end_idx: int = 0      # exclusive sample bound

    def __post_init__(self) -> None:
        if not (self.t_s < self.turn_start < self.t_c
                < self.turn_end < self.t_e):
            raise ValueError(
                f"lap events out of order: {self.t_s} / {self.turn_start} / "
                f"{self.t_c} / {self.turn_end} / {self.t_e}")

    @property
    def window(self) -> slice:
        return slice(self.start_idx, self.end_idx)

    @property
    def duration(self) -> float:
        return self.t_e - self.t_s

    @property
    def turn_duration(self) -> float:
        return self.turn_end - self.turn_start


def _runs(values: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) bounds of each run of equal values."""
    if len(values) == 0:
        return []
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(values)) + 1,
                             [len(values)]))
    return list(zip(bounds[:-1], bounds[1:]))


def _true_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) bounds of each run of True."""
    return [(i0, i1) for i0, i1 in _runs(mask) if mask[i0]]


def _sustain(mask: np.ndarray, min_len: int) -> np.ndarray:
    """Drop True-runs shorter than ``min_len`` samples."""
    out = np.zeros_like(mask)
    for i0, i1 in _true_runs(mask):
        if i1 - i0 >= min_len:
            out[i0:i1] = True
    return out


def _rolling_extrema(values: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    padded = np.pad(values, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    return windows.max(axis=1), windows.min(axis=1)


def fluking_mask(states: KinematicState) -> np.ndarray:
    """True where the pitch channel oscillates hard enough to be fluking."""
    dt = states.dt
    half = max(1, int(round(OSC_WINDOW_S / dt)) // 2)
    detrended = states.theta - moving_average(states.theta, OSC_WINDOW_S, dt)
    hi, lo = _rolling_extrema(detrended, half)
    return np.maximum(hi, -lo) >= THETA_OSC


def detect_laps(states: KinematicState,
                cfg: SegmentationConfig = SegmentationConfig()) -> list[LapEvents]:
    """Find all laps in a trial and their cornering events.

    Returns an empty list when no speed run turns.
    """
    t, v = states.t, states.v
    n = len(v)
    dt = states.dt
    start_n = max(1, int(round(START_SUSTAIN_S / dt)))
    end_n = max(1, int(round(END_SUSTAIN_S / dt)))

    # Dips below threshold shorter than the end sustain do not close a lap.
    merged: list[list[int]] = []
    for i0, i1 in _true_runs(v > cfg.v_start):
        if merged and i0 - merged[-1][1] < end_n:
            merged[-1][1] = i1
        else:
            merged.append([i0, i1])

    events = []
    for i0, i1 in merged:
        if i1 - i0 < start_n:
            continue
        lap_t, psi = t[i0:i1], states.psi[i0:i1]
        psi_s, psi_e = np.median(psi[:EDGE_N]), np.median(psi[-EDGE_N:])
        if not abs(psi_e - psi_s) > TURN_MIN:
            continue
        # The heading past its half-turn, signed so that it rises through
        # zero there: its median is negative over the first EDGE_N samples
        # and positive over the last, so rel[k] < 0 <= rel[k + 1] for some k.
        rel = (psi - 0.5 * (psi_s + psi_e)) * np.sign(psi_e - psi_s)
        k = np.flatnonzero((rel[:-1] < 0.0) & (rel[1:] >= 0.0))[0]
        t_c = float(lap_t[k] + dt * rel[k] / (rel[k] - rel[k + 1]))
        c_rel = int(np.argmin(np.abs(lap_t - t_c)))
        turn_start, turn_end = _turn_bounds(
            lap_t, np.abs(states.a_n[i0:i1]), c_rel, t_c, dt)
        events.append(LapEvents(
            t_s=float(t[i0]), t_c=t_c,
            t_e=float(t[i1]) if i1 < n else float(t[-1]) + dt,
            turn_start=turn_start, turn_end=turn_end, start_idx=i0,
            corner_idx=i0 + c_rel, end_idx=i1))
    return events


def _turn_bounds(t, an, c, t_c, dt):
    """Turn window around sample ``c`` of one lap's samples ``t``, ``an``,
    whose cornering event is ``t_c``."""
    level = TURN_LEVEL * an[c]
    turn_start = float(t[0])
    for k in range(c - 1, -1, -1):
        if an[k] < level:
            frac = (level - an[k]) / (an[k + 1] - an[k])
            turn_start = float(t[k] + frac * dt)
            break
    turn_end = float(t[-1])
    for k in range(c + 1, len(t)):
        if an[k] < level:
            frac = (an[k - 1] - level) / (an[k - 1] - an[k])
            turn_end = float(t[k - 1] + frac * dt)
            break
    # Keep strict event ordering even without a cornering signal.
    turn_start = min(max(turn_start, float(t[0]) + 1e-9), t_c - 1e-9)
    turn_end = max(min(turn_end, float(t[-1]) - 1e-9), t_c + 1e-9)
    return turn_start, turn_end


def classify_phases(states: KinematicState, events: list[LapEvents],
                    cfg: SegmentationConfig = SegmentationConfig()) -> np.ndarray:
    """Label every sample rest / transient / consistent_speed / glide.

    Samples outside all laps are rest. Inside a lap, fluking samples split
    into transient (|a_t| above threshold, sustained) and consistent
    speed; non-fluking lap samples are glide (a detected lap is in motion
    by construction). Phases shorter than the minimum duration merge into
    the preceding phase.
    """
    n = len(states)
    dt = states.dt
    labels = np.full(n, REST, dtype=np.int8)
    fluk = fluking_mask(states)
    trans_n = max(1, int(round(TRANS_SUSTAIN_S / dt)))
    min_n = max(1, int(round(MIN_PHASE_S / dt)))
    transient = _sustain(np.abs(states.a_t) >= cfg.a_thresh, trans_n)

    for ev in events:
        lap = ev.window
        seg = np.where(fluk[lap],
                       np.where(transient[lap], TRANSIENT, CONSISTENT),
                       GLIDE).astype(np.int8)
        labels[lap] = _merge_short_runs(seg, min_n)
    return labels


def _merge_short_runs(seg: np.ndarray, min_n: int) -> np.ndarray:
    """Absorb label runs shorter than ``min_n`` into the preceding run."""
    out = seg.copy()
    changed = True
    while changed:
        changed = False
        runs = _runs(out)
        for k, (r0, r1) in enumerate(runs):
            if r1 - r0 < min_n and len(runs) > 1:
                target = runs[k - 1] if k > 0 else runs[k + 1]
                out[r0:r1] = out[target[0]]
                changed = True
                break
    return out


def pct_lap_time(t: np.ndarray | float, t_c: float, t_end: float):
    """Piecewise percentage-lap mapping of lap-relative time, in percent.

    Expands the pre-corner half onto [0, 50] and the post-corner half onto
    [50, 100]; continuous, strictly increasing, exactly 50 at ``t_c``.
    """
    if not 0.0 < t_c < t_end:
        raise ValueError("degenerate lap: need 0 < t_c < t_end")
    tt = np.asarray(t, dtype=float)
    # Division order keeps t = t_c at exactly one half before scaling.
    warped = np.where(
        tt <= t_c,
        t_end * (tt / (2.0 * t_c)),
        t_end - t_end * ((t_end - tt) / (2.0 * (t_end - t_c))))
    pct = 100.0 * (warped / t_end)
    return float(pct) if np.isscalar(t) else pct


def normalize_lap(channels: dict[str, np.ndarray], t: np.ndarray,
                  t_s: float, t_c: float, t_e: float) -> dict[str, np.ndarray]:
    """Resample one lap's channels, sampled at ``t``, onto ``PCT_GRID``.

    ``t_s``, ``t_c`` and ``t_e`` are the lap's start, corner and end
    times, as in :class:`LapEvents`: the corner maps to 50 %.
    """
    if len(t) < 2:
        raise ValueError("lap holds fewer than 2 samples")
    pct = pct_lap_time(t - t_s, t_c - t_s, t_e - t_s)
    out = {}
    for name, ch in channels.items():
        if len(ch) != len(t):
            raise ValueError(f"channel {name!r} not aligned to t")
        out[name] = np.interp(PCT_GRID, pct, ch)
    return out


def lap_metrics(states: KinematicState, power: PowerSeries,
                events: LapEvents, labels: np.ndarray) -> dict:
    """One lap's durations, peaks, work and COT, each once and in SI units:
    no sums of other fields and no ratios to an animal constant."""
    dt = states.dt
    lap = events.window
    t = states.t[lap]
    lap_labels = labels[lap]
    p_thrust = power.p_thrust[lap]
    v_lap, cot_lap = states.v[lap], power.cot[lap]
    out_mask = t < events.t_c
    phases = (TRANSIENT, CONSISTENT, GLIDE)
    masks = {code: lap_labels == code for code in phases}
    n_all = {code: np.count_nonzero(masks[code]) for code in phases}
    n_out = {code: np.count_nonzero(masks[code] & out_mask)
             for code in phases}
    n_ret = {code: n_all[code] - n_out[code] for code in phases}

    def phase_work(code: int, rectify: bool) -> float:
        if not n_all[code]:
            return 0.0
        return thrust_work(p_thrust, dt, window=masks[code], rectify=rectify)

    work_rect = {code: phase_work(code, True) for code in phases}
    work_signed = {code: phase_work(code, False) for code in phases}

    # The lap's one turn radius, v/|omega| at the cornering event.
    omega_c = abs(states.omega[events.corner_idx])
    corner_radius = (float(states.v[events.corner_idx] / omega_c)
                     if omega_c > 0.0 else float("nan"))

    metrics = {
        "t_start": events.t_s,
        "t_corner": events.t_c,
        "t_end": events.t_e,
        "duration_s": events.duration,
        "turn_start": events.turn_start,
        "turn_end": events.turn_end,
        "turn_duration_s": events.turn_duration,
        "path_length_m": float(np.sum(states.v_xy[lap]) * dt),
        "peak_speed_ms": float(v_lap.max()),
        "mean_speed_ms": float(v_lap.mean()),
        "peak_power_w": float(p_thrust.max()),
        "mean_power_w": float(p_thrust.mean()),
        "peak_omega_rads": float(np.abs(states.omega[lap]).max()),
        "corner_radius_m": corner_radius,
        "thrust_work_j": thrust_work(p_thrust, dt),
        "thrust_work_signed_j": thrust_work(p_thrust, dt, rectify=False),
        "drag_work_j": thrust_work(power.p_drag[lap], dt, rectify=False),
        "mean_cot": float(np.nanmean(cot_lap))
        if np.isfinite(cot_lap).any() else float("nan"),
        "transient_s": float(n_all[TRANSIENT] * dt),
        "consistent_s": float(n_all[CONSISTENT] * dt),
        "glide_s": float(n_all[GLIDE] * dt),
        "out_transient_s": float(n_out[TRANSIENT] * dt),
        "out_consistent_s": float(n_out[CONSISTENT] * dt),
        "ret_transient_s": float(n_ret[TRANSIENT] * dt),
        "ret_consistent_s": float(n_ret[CONSISTENT] * dt),
        "ret_glide_s": float(n_ret[GLIDE] * dt),
        "work_transient_j": work_rect[TRANSIENT],
        "work_consistent_j": work_rect[CONSISTENT],
        "work_glide_j": work_rect[GLIDE],
        "work_signed_transient_j": work_signed[TRANSIENT],
        "work_signed_consistent_j": work_signed[CONSISTENT],
        "work_signed_glide_j": work_signed[GLIDE],
    }

    for cls, codes in PHASE_CLASSES.items():
        mask = np.logical_or.reduce([masks[code] for code in codes])
        stats = [float("nan")] * len(CLASS_STATS)
        if mask.any():
            v = float(v_lap[mask].mean())
            p = float(p_thrust[mask].mean())
            cot = cot_lap[mask]
            stats = [v, p, float(np.nanmean(cot)) if np.isfinite(cot).any()
                     else float("nan")]
        metrics.update(zip([f"{cls}_{stat}" for stat in CLASS_STATS], stats))
    return metrics
