"""Dead-reckoned planar track, curvature, and cornering-circle fits."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import fmt, local_to_latlon, write_table
from .kinematics import KinematicState

# Cross-term magnitudes below this (m^2/s^3) count as straight-line motion.
EPS_CURVATURE = 1e-6


@dataclass
class Track:
    """Planar dead-reckoned positions with per-sample curvature radius.

    ``radius`` is +inf where the path is locally straight (including the
    first and last samples, which lack a difference stencil).
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    radius: np.ndarray | None = None
    end_point: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if not (len(self.t) == len(self.x) == len(self.y)):
            raise ValueError("track channels must share one length")
        if self.radius is None:
            self.radius = np.full(len(self.t), np.inf)

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class CircleFit:
    cx: float
    cy: float
    radius: float
    rms_residual: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError("fitted radius must be positive")


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


def curvature_radius(track: Track, dt: float,
                     eps: float = EPS_CURVATURE) -> np.ndarray:
    """Instantaneous radius of curvature from difference stencils.

    Interior samples use central first differences and the three-point
    second difference; the cross term ``x' y'' - y' x''`` below ``eps``
    (and both endpoints) map to +inf.
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
        interior = np.where(cross < eps, np.inf,
                            (xd ** 2 + yd ** 2) ** 1.5 / cross)
    radius[1:-1] = interior
    return radius


def fit_circle(points: np.ndarray) -> CircleFit:
    """Algebraic least-squares circle through ``points`` (n >= 3, Nx2).

    Centered formulation of the classic algebraic fit; collinear points
    make the normal equations singular and raise ValueError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise ValueError("need at least 3 (x, y) points")
    u = pts[:, 0] - pts[:, 0].mean()
    v = pts[:, 1] - pts[:, 1].mean()
    suu, svv, suv = np.sum(u * u), np.sum(v * v), np.sum(u * v)
    a = np.array([[suu, suv], [suv, svv]])
    b = 0.5 * np.array([np.sum(u ** 3) + np.sum(u * v * v),
                        np.sum(v ** 3) + np.sum(v * u * u)])
    det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    scale = max(suu, svv)
    if scale <= 0.0 or abs(det) < 1e-12 * scale ** 2:
        raise ValueError("points are collinear; circle fit is singular")
    uc, vc = np.linalg.solve(a, b)
    radius = float(np.sqrt(uc ** 2 + vc ** 2 + (suu + svv) / len(pts)))
    cx = float(uc + pts[:, 0].mean())
    cy = float(vc + pts[:, 1].mean())
    dist = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    rms = float(np.sqrt(np.mean((dist - radius) ** 2)))
    return CircleFit(cx=cx, cy=cy, radius=radius, rms_residual=rms)


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
            radius=track.radius.copy(),
        ))
    return aligned


def track_to_csv(track: Track, path: str | Path) -> None:
    """Write t, x, y, R rows."""
    write_table(path, {"t": track.t, "x": track.x, "y": track.y,
                       "R": track.radius})


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
