"""Per-sample motion state on the master timeline.

Speed and unwrapped yaw are smoothed with a 1 s centered moving average
before differencing; tangential acceleration and planar angular speed come
from the same central-difference stencil, and normal acceleration is their
pointwise product with speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import moving_average

SMOOTH_WINDOW_S = 1.0


@dataclass
class KinematicState:
    """Fused kinematic channels, one value per master-timeline sample.

    ``dt`` is the timeline's sample period, ``ingest.MASTER_DT`` in a run.
    ``a_n`` is signed (omega * v); use its magnitude for peak detection.
    """

    t: np.ndarray
    dt: float
    v: np.ndarray
    v_xy: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    depth: np.ndarray
    a_t: np.ndarray
    omega: np.ndarray
    a_n: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def central_diff(values: np.ndarray, dt: float) -> np.ndarray:
    """Second-order central differences, first-order one-sided at the ends."""
    values = np.asarray(values, dtype=float)
    if len(values) < 3:
        raise ValueError("central_diff needs at least 3 samples")
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (values[1] - values[0]) / dt
    out[-1] = (values[-1] - values[-2]) / dt
    return out


def compute_kinematics(v_raw: np.ndarray, pitch: np.ndarray, yaw: np.ndarray,
                       depth: np.ndarray, t: np.ndarray,
                       dt: float) -> KinematicState:
    """Assemble the kinematic state from channels sampled at instants ``t``.

    ``dt`` is the sample period of ``t``. ``yaw`` must already be
    unwrapped; it is smoothed here together with the raw speed. Pitch
    enters only through the planar projection ``v_xy = v cos(pitch)``.
    """
    n = len(t)
    for name, ch in (("v_raw", v_raw), ("pitch", pitch), ("yaw", yaw),
                     ("depth", depth)):
        if len(ch) != n:
            raise ValueError(f"{name} not aligned to timeline ({len(ch)} != {n})")

    v = moving_average(np.asarray(v_raw, dtype=float), SMOOTH_WINDOW_S, dt)
    v = np.maximum(v, 0.0)
    psi = moving_average(np.asarray(yaw, dtype=float), SMOOTH_WINDOW_S, dt)
    a_t = central_diff(v, dt)
    omega = central_diff(psi, dt)
    a_n = omega * v
    theta = np.asarray(pitch, dtype=float)
    v_xy = v * np.cos(theta)
    return KinematicState(
        t=t, dt=dt, v=v, v_xy=v_xy, theta=theta, psi=psi,
        depth=np.asarray(depth, dtype=float), a_t=a_t, omega=omega, a_n=a_n)
