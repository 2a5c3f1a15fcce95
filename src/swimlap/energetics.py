"""Rigid-body hydrodynamic model: drag, thrust power, work, and COT.

Sign conventions: positive force and power act along the swimming
direction, so drag force and drag power are always <= 0 and the thrust
power decomposes exactly into an inertial term plus the drag magnitude
term. Gliding samples can carry negative thrust power; work aggregation
exposes both the rectified ("propulsive output") and the raw signed sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import AnimalParams

# Near-surface drag augmentation vs submergence depth over body diameter:
# 2.5x at h/d <= 0.5 easing linearly to 1.0 at h/d >= 3.0.
GAMMA_TABLE = ((0.5, 2.5), (3.0, 1.0))

# Below this speed the COT denominator is considered degenerate.
V_MIN_COT = 0.05

# fit_power_law stops after this many Gauss-Newton steps, or once a step
# lowers the squared-residual sum by less than this fraction of it.
FIT_MAX_ITER = 200
FIT_TOL = 1e-14


@dataclass
class PowerSeries:
    """Per-sample force and power channels of the hydrodynamic model."""

    t: np.ndarray
    v: np.ndarray
    gamma: np.ndarray
    f_drag: np.ndarray
    f_thrust: np.ndarray
    p_inertial: np.ndarray
    p_drag: np.ndarray
    p_thrust: np.ndarray
    cot: np.ndarray


def wave_drag_factor(depth: float | np.ndarray,
                     body_diameter: float) -> np.ndarray:
    """Depth-dependent drag multiplier gamma >= 1.

    Piecewise-linear in the submergence ratio h/d with clamped ends, through
    the points of :data:`GAMMA_TABLE`.
    """
    if body_diameter <= 0.0:
        raise ValueError("body_diameter must be positive")
    ratio = np.asarray(depth, dtype=float) / body_diameter
    if np.any(ratio < 0.0):
        raise ValueError("depth must be non-negative")
    hd, g = zip(*GAMMA_TABLE)
    return np.interp(ratio, hd, g)


def drag_force(v: float | np.ndarray, depth: float | np.ndarray,
               params: AnimalParams) -> np.ndarray:
    """Opposing drag force (<= 0) at body speed ``v`` and depth, N.

    Quadratic drag with Reynolds-dependent coefficient:
    ``-0.5 rho A_s C_D(Re) gamma v^2`` where ``A_s = 0.08 m^0.65`` and
    ``C_D = 16.99 Re^-0.47``. Zero speed short-circuits to zero force.
    """
    v = np.asarray(v, dtype=float)
    if np.any(v < 0.0):
        raise ValueError("speed must be non-negative")
    gamma = wave_drag_factor(depth, params.body_diameter)
    with np.errstate(divide="ignore"):
        re = v * params.length / params.nu
        cd = np.where(re > 0.0, 16.99 * re ** -0.47, 0.0)
    return -0.5 * params.rho * params.surface_area * cd * gamma * v ** 2


def thrust_power(t: np.ndarray, v: np.ndarray, a_t: np.ndarray,
                 depth: np.ndarray, params: AnimalParams) -> PowerSeries:
    """Evaluate the thrust-power balance over aligned channels.

    ``p_thrust = (m + 0.4 rho V) a_t v + 0.5 rho A_s C_D gamma v^3``;
    the returned series carries the force/power decomposition and the
    metabolic cost of transport ``(p_thrust / (eta_ms eta_sp) + P_RMR) /
    (m v)`` in J/(kg m), NaN at speeds up to :data:`V_MIN_COT`.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    a_t = np.asarray(a_t, dtype=float)
    depth = np.asarray(depth, dtype=float)
    gamma = wave_drag_factor(depth, params.body_diameter)
    f_drag = drag_force(v, depth, params)
    p_inertial = params.effective_mass * a_t * v
    p_drag = f_drag * v
    p_thrust = p_inertial - p_drag
    f_thrust = params.effective_mass * a_t - f_drag
    with np.errstate(divide="ignore", invalid="ignore"):
        cot = np.where(
            v > V_MIN_COT,
            (p_thrust / (params.eta_ms * params.eta_sp) + params.p_rmr)
            / (params.mass * v),
            np.nan)
    return PowerSeries(
        t=t, v=v, gamma=gamma, f_drag=f_drag, f_thrust=f_thrust,
        p_inertial=p_inertial, p_drag=p_drag, p_thrust=p_thrust, cot=cot,
    )


def thrust_work(p_thrust: np.ndarray, dt: float,
                window: slice | np.ndarray | None = None,
                rectify: bool = True) -> float:
    """Rectangle-rule work of a power channel over ``window``, J.

    ``window`` defaults to all samples. ``rectify=True`` integrates max(P, 0) (propulsive output only);
    ``rectify=False`` returns the raw signed sum, as for drag work.
    """
    p = np.asarray(p_thrust, dtype=float)
    if window is not None:
        p = p[window]
    if p.size == 0:
        raise ValueError("empty work window")
    if rectify:
        p = np.maximum(p, 0.0)
    return float(np.sum(p) * dt)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of P = coeff * v^exponent."""

    coeff: float
    exponent: float
    rms: float


def fit_power_law(v: np.ndarray, p: np.ndarray) -> PowerLawFit:
    """Fit ``p = c * v**e`` by damped Gauss-Newton on squared residuals.

    Seeded with the exact log-log linear solution; deterministic for a
    given input. All speeds and powers must be positive and at least 3
    points are required.
    """
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    if v.shape != p.shape or v.ndim != 1 or len(v) < 3:
        raise ValueError("need >= 3 paired (v, p) samples")
    if np.any(v <= 0.0) or np.any(p <= 0.0):
        raise ValueError("power-law fit requires positive v and p")

    lv, lp = np.log(v), np.log(p)
    det = len(v) * np.sum(lv * lv) - np.sum(lv) ** 2
    if abs(det) < 1e-12 * max(1.0, np.sum(lv * lv)) * len(v):
        raise ValueError("singular normal equations: speeds too clustered")
    e = (len(v) * np.sum(lv * lp) - np.sum(lv) * np.sum(lp)) / det
    c = math.exp((np.sum(lp) - e * np.sum(lv)) / len(v))

    lam = 1e-10
    sse_prev = float(np.sum((p - c * v ** e) ** 2))
    for _ in range(FIT_MAX_ITER):
        model = c * v ** e
        r = p - model
        j1 = v ** e
        j2 = model * lv
        g = np.array([np.sum(j1 * r), np.sum(j2 * r)])
        h = np.array([[np.sum(j1 * j1), np.sum(j1 * j2)],
                      [np.sum(j1 * j2), np.sum(j2 * j2)]])
        step_ok = False
        for _ in range(60):
            try:
                delta = np.linalg.solve(h + lam * np.diag(np.diag(h)), g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            c_new, e_new = c + delta[0], e + delta[1]
            if c_new <= 0.0:
                lam *= 10.0
                continue
            sse_new = float(np.sum((p - c_new * v ** e_new) ** 2))
            if sse_new <= sse_prev:
                step_ok = True
                break
            lam *= 10.0
        if not step_ok:
            break
        c, e = c_new, e_new
        lam = max(lam * 0.25, 1e-12)
        if sse_prev - sse_new <= FIT_TOL * (sse_prev + 1e-300):
            sse_prev = sse_new
            break
        sse_prev = sse_new

    rms = math.sqrt(sse_prev / len(v))
    return PowerLawFit(coeff=float(c), exponent=float(e), rms=rms)

