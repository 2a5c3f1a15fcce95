"""Pitch and heading from the 50 Hz inertial stream and the speed sensor.

Conventions (used consistently by the simulator and the tag pipeline):
  * world frame: x east, y north, z up
  * body frame: x forward, y left, z up
  * Euler angles: yaw about world z, then pitch (positive nose-up), then
    roll about the body x axis; a level accelerometer reads (0, 0, +g).

Analysis is offline, so the filter is zero-phase: it sees the whole
trial at once and fuses with centered moving averages, in the manner of
the DTAG attitude estimate (Johnson & Tyack 2003). The accelerometer,
with the swimmer's own acceleration removed by means of the speed sensor
(the static/dynamic split of Wilson et al. 2006), gives pitch and roll;
the tilt-compensated magnetometer gives heading. The gyroscope, turned
into Euler rates and integrated, carries what changes faster than the
averaging windows.

Only pitch and unwrapped yaw are outputs, the two angles the
dead-reckoned track needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import TagSeries, moving_average

# Window of the speed smoothing before it is differentiated, in seconds.
SPEED_WINDOW_S = 1.0
# Window that averages pitch and roll, in seconds.
TILT_WINDOW_S = 2.0
# Window that averages the magnetometer heading, in seconds.
HEADING_WINDOW_S = 4.0


@dataclass
class OrientationSeries:
    """Pitch and yaw per IMU sample; yaw is unwrapped (no +-pi jumps).

    No stage reads roll, so the series does not keep it.
    """

    t: np.ndarray
    pitch: np.ndarray
    yaw: np.ndarray


def _integrate(rate: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid integral of ``rate`` over ``t``, from 0."""
    out = np.empty_like(rate)
    out[0] = 0.0
    np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(t), out=out[1:])
    return out


def estimate_orientation(tag: TagSeries,
                         initial_heading: float = 0.0) -> OrientationSeries:
    """Estimate pitch and unwrapped yaw at every IMU sample of ``tag``.

    The tag's speed, smoothed over :data:`SPEED_WINDOW_S` on its own grid,
    removes the body's acceleration along and across its path from the
    accelerometer. Pitch is the integrated gyro pitch rate plus the
    :data:`TILT_WINDOW_S` average of its offset from the accelerometer
    pitch. Yaw is the integrated yaw rate plus the
    :data:`HEADING_WINDOW_S` average of its offset from the magnetometer
    heading, or plus ``initial_heading`` for a tag without one.
    Temporaries are freed as soon as they are used: at 50 Hz a trial's
    full-length arrays add up.
    """
    n = tag.n_imu
    if n < 2:
        raise ValueError("need at least 2 IMU samples")
    t = tag.t_imu
    dt = float(t[-1] - t[0]) / (n - 1)
    _, gy, gz = tag.gyro.T

    dt_slow = float(tag.t_slow[-1] - tag.t_slow[0]) / (tag.n_slow - 1)
    v_slow = moving_average(tag.speed, SPEED_WINDOW_S, dt_slow)
    dv = np.interp(t, tag.t_slow, np.gradient(v_slow, tag.t_slow))
    ax = tag.accel[:, 0] - dv
    del dv
    v = np.interp(t, tag.t_slow, v_slow)
    ay = tag.accel[:, 1] - v * gz
    az = tag.accel[:, 2] + v * gy
    del v
    norm = np.sqrt(ax * ax + ay * ay + az * az)
    if not np.all(norm > 0.0):
        raise ValueError("zero-norm accelerometer vector")
    pitch_acc = np.arcsin(np.clip(ax / norm, -1.0, 1.0))
    del ax, norm
    roll = moving_average(np.unwrap(np.arctan2(ay, az)), TILT_WINDOW_S, dt)
    del ay, az
    sin_r, cos_r = np.sin(roll), np.cos(roll)
    del roll

    pitch = _integrate(gz * sin_r - gy * cos_r, t)
    pitch_acc -= pitch  # in place: the accelerometer's offset from the gyro
    pitch += moving_average(pitch_acc, TILT_WINDOW_S, dt)
    del pitch_acc
    cos_p = np.cos(pitch)
    yaw = _integrate((gy * sin_r + gz * cos_r) / cos_p, t)
    if tag.mag is None:
        return OrientationSeries(t=t, pitch=pitch, yaw=yaw + initial_heading)

    mx, my, mz = tag.mag.T
    # Level the field with pitch and roll; its bearing is the heading.
    level_x = cos_p * mx - np.sin(pitch) * (sin_r * my + cos_r * mz)
    level_y = cos_r * my - sin_r * mz
    del sin_r, cos_r, cos_p
    offset = np.arctan2(-level_y, level_x) - yaw
    del level_x, level_y
    yaw += moving_average(np.unwrap(offset), HEADING_WINDOW_S, dt)
    return OrientationSeries(t=t, pitch=pitch, yaw=yaw)
