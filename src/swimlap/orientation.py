"""Quaternion attitude estimation from the 50 Hz inertial stream.

Conventions (used consistently by the simulator and the tag pipeline):
  * world frame: x east, y north, z up
  * body frame: x forward, y left, z up
  * quaternion (w, x, y, z) rotates body vectors into the world frame
  * Euler angles: yaw about world z, then pitch (positive nose-up), then
    roll about the body x axis; a level accelerometer reads (0, 0, +g).

The fusion step is the standard gradient-descent AHRS update: gyroscope
integration corrected toward the accelerometer gravity direction (and,
when available, the magnetometer field direction) at rate ``beta``. With
``beta = 0`` it reduces to pure gyro integration.

Only pitch and unwrapped yaw are outputs, the two angles the
dead-reckoned track needs; roll is used to seed the filter and inside the
Euler conversion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import TagSeries


@dataclass
class OrientationSeries:
    """Pitch and yaw per IMU sample; yaw is unwrapped (no +-pi jumps).

    No stage reads roll, so the series does not keep it.
    """

    t: np.ndarray
    pitch: np.ndarray
    yaw: np.ndarray


# IMU samples that estimate_orientation converts to Python floats at once.
# Whole arrays at once would hold about nine times their bytes.
_BLOCK = 1024

# Seconds of virtual updates on the first sample before the series starts.
SETTLE_S = 1.0


def euler_to_quat(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Compose q = qz(yaw) * qy(-pitch) * qx(roll) (pitch positive nose-up)."""
    cy, sy = math.cos(yaw / 2), math.sin(yaw / 2)
    cp, sp = math.cos(pitch / 2), math.sin(pitch / 2)
    cr, sr = math.cos(roll / 2), math.sin(roll / 2)
    return np.array([cy * cp * cr - sy * sp * sr,
                     cy * cp * sr + sy * sp * cr,
                     sy * cp * sr - cy * sp * cr,
                     cy * sp * sr + sy * cp * cr])


def quat_to_euler(q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (roll, pitch, yaw) of unit quaternions ``q``, shape (4,) or (n, 4).

    The inverse of :func:`euler_to_quat`; pitch is clamped at the +-pi/2
    gimbal.
    """
    w, x, y, z = np.asarray(q, dtype=float).T
    return (np.arctan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
            np.arcsin(np.clip(2.0 * (x * z - w * y), -1.0, 1.0)),
            np.arctan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z)))


def _ahrs_step(w: float, x: float, y: float, z: float,
               gx: float, gy: float, gz: float,
               ax: float, ay: float, az: float,
               mag: list[float] | None, beta: float, dt: float
               ) -> tuple[float, float, float, float]:
    """One AHRS update on Python floats; returns the unit quaternion.

    gyro in rad/s, accel in m/s^2 (any scale: only its direction is used),
    ``mag`` is (mx, my, mz) in any consistent units, or None for
    gyro+accel-only fusion. This is the only copy of the filter math.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    a_norm = math.sqrt(ax * ax + ay * ay + az * az)
    if a_norm == 0.0:
        raise ValueError("zero-norm accelerometer vector")

    dw = 0.5 * (-x * gx - y * gy - z * gz)
    dx = 0.5 * (w * gx + y * gz - z * gy)
    dy = 0.5 * (w * gy - x * gz + z * gx)
    dz = 0.5 * (w * gz + x * gy - y * gx)

    if beta > 0.0:
        ax, ay, az = ax / a_norm, ay / a_norm, az / a_norm

        # Gravity objective: predicted body-frame up minus measurement.
        f1 = 2.0 * (x * z - w * y) - ax
        f2 = 2.0 * (w * x + y * z) - ay
        f3 = 1.0 - 2.0 * (x * x + y * y) - az
        s_w = -2.0 * y * f1 + 2.0 * x * f2
        s_x = 2.0 * z * f1 + 2.0 * w * f2 - 4.0 * x * f3
        s_y = -2.0 * w * f1 + 2.0 * z * f2 - 4.0 * y * f3
        s_z = 2.0 * x * f1 + 2.0 * y * f2

        m_norm = 0.0
        if mag is not None:
            mx, my, mz = mag
            m_norm = math.sqrt(mx * mx + my * my + mz * mz)
        if m_norm > 0.0:
            mx, my, mz = mx / m_norm, my / m_norm, mz / m_norm
            # Earth-field reference: horizontal component along world +x.
            # h = q (0, m) q*, the field rotated into the world frame.
            pw = -x * mx - y * my - z * mz
            px = w * mx + y * mz - z * my
            py = w * my - x * mz + z * mx
            pz = w * mz + x * my - y * mx
            hx = -pw * x + px * w - py * z + pz * y
            hy = -pw * y + px * z + py * w - pz * x
            bx = math.sqrt(hx * hx + hy * hy)
            bz = -pw * z - px * y + py * x + pz * w
            # Predicted body-frame field for reference (bx, 0, bz).
            p1 = bx * (1.0 - 2.0 * (y * y + z * z)) + bz * 2.0 * (x * z - w * y) - mx
            p2 = bx * 2.0 * (x * y - w * z) + bz * 2.0 * (w * x + y * z) - my
            p3 = bx * 2.0 * (x * z + w * y) + bz * (1.0 - 2.0 * (x * x + y * y)) - mz
            s_w += (-2.0 * bz * y) * p1 + (-2.0 * bx * z + 2.0 * bz * x) * p2 \
                + (2.0 * bx * y) * p3
            s_x += (2.0 * bz * z) * p1 + (2.0 * bx * y + 2.0 * bz * w) * p2 \
                + (2.0 * bx * z - 4.0 * bz * x) * p3
            s_y += (-4.0 * bx * y - 2.0 * bz * w) * p1 \
                + (2.0 * bx * x + 2.0 * bz * z) * p2 \
                + (2.0 * bx * w - 4.0 * bz * y) * p3
            s_z += (-4.0 * bx * z + 2.0 * bz * x) * p1 \
                + (-2.0 * bx * w + 2.0 * bz * y) * p2 + (2.0 * bx * x) * p3

        s_norm = math.sqrt(s_w * s_w + s_x * s_x + s_y * s_y + s_z * s_z)
        if s_norm > 0.0:
            dw -= beta * s_w / s_norm
            dx -= beta * s_x / s_norm
            dy -= beta * s_y / s_norm
            dz -= beta * s_z / s_norm

    w, x, y, z = w + dw * dt, x + dx * dt, y + dy * dt, z + dz * dt
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    if norm == 0.0:
        raise ValueError("zero-norm quaternion")
    return w / norm, x / norm, y / norm, z / norm


def pose_from_measurements(accel: np.ndarray, mag: np.ndarray | None,
                           fallback_heading: float = 0.0
                           ) -> tuple[float, float, float]:
    """Static (roll, pitch, yaw) implied by one accel (+ mag) sample.

    Yaw is referenced to the horizontal field direction when a
    magnetometer sample is given, otherwise ``fallback_heading``.
    """
    a = np.asarray(accel, dtype=float)
    norm = math.sqrt(float(np.dot(a, a)))
    if norm == 0.0:
        raise ValueError("zero-norm accelerometer vector")
    ax, ay, az = a / norm
    pitch = math.asin(max(-1.0, min(1.0, ax)))
    roll = math.atan2(ay, az)
    yaw = fallback_heading
    if mag is not None:
        cp, sp = math.cos(pitch), math.sin(pitch)
        cr, sr = math.cos(roll), math.sin(roll)
        mx, my, mz = np.asarray(mag, dtype=float)
        # De-rotate the field into the level frame, then take its bearing.
        lx = cp * mx - sp * (sr * my + cr * mz)
        ly = cr * my - sr * mz
        yaw = math.atan2(-ly, lx)
    return roll, pitch, yaw


def estimate_orientation(tag: TagSeries, beta: float = 0.1,
                         initial_heading: float = 0.0) -> OrientationSeries:
    """Run the AHRS over the full IMU stream of ``tag``.

    The filter is seeded from the first accel/mag sample (heading falls
    back to ``initial_heading`` without a magnetometer) and pre-settled
    with :data:`SETTLE_S` worth of virtual updates so the series starts
    converged. A tag without magnetometer cells runs gyro+accel only.
    """
    n = tag.n_imu
    if n < 2:
        raise ValueError("need at least 2 IMU samples")
    t = tag.t_imu
    mag_series = tag.mag

    mag0 = mag_series[0].tolist() if mag_series is not None else None
    accel0 = tag.accel[0].tolist()
    w, x, y, z = euler_to_quat(*pose_from_measurements(
        accel0, mag0, initial_heading)).tolist()
    beta = float(beta)
    dt0 = float(t[1] - t[0])
    n_settle = int(round(SETTLE_S / dt0)) if beta > 0.0 else 0
    for _ in range(n_settle):
        w, x, y, z = _ahrs_step(w, x, y, z, 0.0, 0.0, 0.0, *accel0, mag0,
                                beta, dt0)

    pitch, yaw = np.empty(n), np.empty(n)
    _, pitch[0], yaw[0] = quat_to_euler((w, x, y, z))
    for i0 in range(1, n, _BLOCK):
        i1 = min(i0 + _BLOCK, n)
        mags = (mag_series[i0:i1].tolist() if mag_series is not None
                else [None] * (i1 - i0))
        block = []
        for (gx, gy, gz), (ax, ay, az), mag, dt in zip(
                tag.gyro[i0:i1].tolist(), tag.accel[i0:i1].tolist(), mags,
                np.diff(t[i0 - 1:i1]).tolist()):
            w, x, y, z = _ahrs_step(w, x, y, z, gx, gy, gz, ax, ay, az, mag,
                                    beta, dt)
            block.append((w, x, y, z))
        _, pitch[i0:i1], yaw[i0:i1] = quat_to_euler(block)

    return OrientationSeries(t=t, pitch=pitch, yaw=np.unwrap(yaw))
