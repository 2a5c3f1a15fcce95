"""Dead-reckoned planar track and its radius of curvature."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import fmt, local_to_latlon
from .kinematics import KinematicState

# Cross-term magnitudes below this (m^2/s^3) count as straight-line motion.
EPS_CURVATURE = 1e-6
# Radii above this (m) count as straight too: on a straight the curvature
# is rounding noise, so its radius would change with the last bit of the
# heading. The presets corner at 1.1-1.8 m.
MAX_RADIUS_M = 100.0


@dataclass
class Track:
    """Planar dead-reckoned positions."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    end_point: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (len(self.t) == len(self.x) == len(self.y)):
            raise ValueError("track channels must share one length")

    def __len__(self) -> int:
        return len(self.t)


def dead_reckon(states: KinematicState, p0: tuple[float, float]) -> Track:
    """Integrate planar speed along the smoothed heading from ``p0``.

    Each step advances by ``v_xy * dt`` along ``(cos psi, sin psi)``; the
    first track sample sits exactly at ``p0``. ``end_point`` is the
    position reached after the final sample's step, so reckoning a
    follow-on segment from it equals reckoning the concatenated series.
    """
    if not np.all(np.isfinite(p0)):
        raise ValueError("p0 must be finite")
    dt = states.dt
    step_x = states.v_xy * np.cos(states.psi) * dt
    step_y = states.v_xy * np.sin(states.psi) * dt
    x = p0[0] + np.concatenate(([0.0], np.cumsum(step_x[:-1])))
    y = p0[1] + np.concatenate(([0.0], np.cumsum(step_y[:-1])))
    end = (float(x[-1] + step_x[-1]), float(y[-1] + step_y[-1]))
    return Track(t=states.t.copy(), x=x, y=y, end_point=end)


def curvature_radius(track: Track, dt: float) -> np.ndarray:
    """Instantaneous radius of curvature from difference stencils.

    Interior samples use central first differences and the three-point
    second difference; the cross term ``x' y'' - y' x''`` below
    ``EPS_CURVATURE``, radii above ``MAX_RADIUS_M`` and both endpoints map
    to +inf.
    """
    x, y = track.x, track.y
    if len(x) < 3:
        raise ValueError("curvature needs at least 3 samples")
    xd = (x[2:] - x[:-2]) / (2.0 * dt)
    yd = (y[2:] - y[:-2]) / (2.0 * dt)
    xdd = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / dt ** 2
    ydd = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / dt ** 2
    cross = np.abs(xd * ydd - yd * xdd)
    radius = np.full(len(x), np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        interior = np.where(cross < EPS_CURVATURE, np.inf,
                            (xd ** 2 + yd ** 2) ** 1.5 / cross)
    radius[1:-1] = np.where(interior > MAX_RADIUS_M, np.inf, interior)
    return radius


def align_at_corner(tracks: list[Track], corner_indices: list[int]) -> list[Track]:
    """Translate and rotate each track into a common cornering frame.

    The corner sample moves to the origin and the net pre-corner
    displacement direction is rotated onto +x, so differences in where and
    which way the corner was taken remain visible (mirrored turns mirror
    about the x axis).
    """
    if len(tracks) != len(corner_indices):
        raise ValueError("one corner index per track required")
    aligned = []
    for track, ci in zip(tracks, corner_indices):
        if ci is None or not 0 <= ci < len(track):
            raise ValueError(f"corner index {ci} outside track")
        x = track.x - track.x[ci]
        y = track.y - track.y[ci]
        if ci > 0:
            phi = float(np.arctan2(-y[0], -x[0]))
        else:
            phi = 0.0
        c, s = np.cos(-phi), np.sin(-phi)
        aligned.append(Track(
            t=track.t.copy(),
            x=c * x - s * y,
            y=s * x + c * y,
        ))
    return aligned


def track_to_geojson(track: Track, path: str | Path,
                     origin: tuple[float, float]) -> None:
    """Write the track as a WGS-84 GeoJSON LineString about ``origin``."""
    lat, lon = local_to_latlon(track.x, track.y, origin)
    feature = {
        "type": "Feature",
        "properties": {"t_start": round(float(track.t[0]), 6),
                       "t_end": round(float(track.t[-1]), 6)},
        "geometry": {
            "type": "LineString",
            "coordinates": [[float(fmt(lo)), float(fmt(la))]
                            for lo, la in zip(lon, lat)],
        },
    }
    Path(path).write_text(json.dumps(feature, sort_keys=True))
