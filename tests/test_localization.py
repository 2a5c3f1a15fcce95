import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swimlap.ingest import fmt
from swimlap.kinematics import compute_kinematics
from swimlap.localization import (
    Track,
    align_at_corner,
    curvature_radius,
    dead_reckon,
)


@pytest.fixture
def ellipse():
    """6 m x 3 m ellipse at a constant parameter rate of 1 rad/s, sampled
    every 0.02 s, with its analytic radius channel.

    A curvature-estimator stress fixture: radius varies continuously
    between ``b^2/a`` and ``a^2/b`` along the path.
    """
    a, b, dt = 6.0, 3.0, 0.02
    tau = np.arange(300) * dt
    num = (a ** 2 * np.sin(tau) ** 2 + b ** 2 * np.cos(tau) ** 2) ** 1.5
    track = Track(t=tau, x=a * np.cos(tau), y=b * np.sin(tau))
    return track, num / (a * b)


def state_from(v, yaw, n=None, dt=0.2):
    n = len(v) if n is None else n
    return compute_kinematics(np.asarray(v, float), np.zeros(n),
                              np.asarray(yaw, float), np.full(n, 1.0),
                              np.arange(n) * dt, dt)


def raw_state(v_xy, psi, dt=0.2):
    """KinematicState with the planar channels set directly (no smoothing)."""
    from swimlap.kinematics import KinematicState

    n = len(v_xy)
    v_xy = np.asarray(v_xy, float)
    psi = np.asarray(psi, float)
    zero = np.zeros(n)
    return KinematicState(t=np.arange(n) * dt, dt=dt, v=v_xy.copy(),
                          v_xy=v_xy,
                          theta=zero, psi=psi, depth=zero + 1.0, a_t=zero,
                          omega=zero, a_n=zero)


class TestDeadReckon:
    def test_stationary(self):
        kin = state_from(np.zeros(20), np.zeros(20))
        track = dead_reckon(kin, (3.0, -2.0))
        assert np.all(track.x == 3.0)
        assert np.all(track.y == -2.0)

    def test_straight_line(self):
        # 2 m/s east for 5 full steps of 0.2 s covers exactly 2 m.
        kin = state_from(np.full(6, 2.0), np.zeros(6))
        track = dead_reckon(kin, (0.0, 0.0))
        assert track.x[-1] == pytest.approx(2.0, abs=1e-12)
        assert track.y[-1] == pytest.approx(0.0, abs=1e-12)

    def test_path_length_identity(self, preset_trials):
        _, _, _, result = preset_trials["TT03"]
        kin, track = result.kin, result.track
        polyline = float(np.sum(np.hypot(np.diff(track.x), np.diff(track.y))))
        riemann = float(np.sum(kin.v_xy[:-1]) * kin.dt)
        assert polyline == pytest.approx(riemann, rel=1e-12)

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(-3.1, 3.1))
    @settings(max_examples=25, deadline=None)
    def test_translation_rotation_equivariance(self, px, py, phi):
        rng = np.random.default_rng(11)
        n = 40
        v = np.abs(rng.normal(2, 0.3, n))
        yaw = np.cumsum(rng.normal(0, 0.1, n))
        base = dead_reckon(state_from(v, yaw), (0.0, 0.0))
        moved = dead_reckon(state_from(v, yaw + phi), (px, py))
        c, s = math.cos(phi), math.sin(phi)
        assert np.allclose(moved.x, px + c * base.x - s * base.y, atol=1e-9)
        assert np.allclose(moved.y, py + s * base.x + c * base.y, atol=1e-9)

    def test_segment_additivity(self):
        rng = np.random.default_rng(5)
        n, k = 50, 23
        v = np.abs(rng.normal(2, 0.4, n))
        yaw = np.cumsum(rng.normal(0, 0.2, n))
        full = dead_reckon(raw_state(v, yaw), (1.0, 2.0))
        a = dead_reckon(raw_state(v[:k], yaw[:k]), (1.0, 2.0))
        b = dead_reckon(raw_state(v[k:], yaw[k:]), a.end_point)
        assert np.allclose(b.x, full.x[k:], atol=1e-9)
        assert np.allclose(b.y, full.y[k:], atol=1e-9)

    def test_semicircle_endpoint_error(self, default_lap):
        # Zero-noise lap: reconstructed endpoint lands within 1 % of the
        # path length of the true endpoint.
        scenario, truth, _, result = default_lap
        track = result.track
        n = len(track)
        err = math.hypot(track.x[n - 1] - truth.x[n - 1],
                         track.y[n - 1] - truth.y[n - 1])
        assert err < 0.01 * truth.path_length


class TestCurvature:
    @staticmethod
    def circle_points(radius, speed, dt, arc=2 * math.pi):
        omega = speed / radius
        t = np.arange(0.0, arc / omega, dt)
        return Track(t=t, x=radius * np.cos(omega * t),
                     y=radius * np.sin(omega * t))

    def test_circle_recovered_within_2pct(self):
        track = self.circle_points(1.8, 2.0, 0.2)
        r = curvature_radius(track, 0.2)
        interior = r[1:-1]
        assert np.all(np.abs(interior - 1.8) / 1.8 < 0.02)

    def test_collinear_infinite(self):
        t = np.arange(10) * 0.2
        track = Track(t=t, x=3.0 * t, y=-1.5 * t)
        r = curvature_radius(track, 0.2)
        assert np.all(np.isinf(r))

    def test_endpoints_infinite(self):
        track = self.circle_points(1.8, 2.0, 0.2)
        r = curvature_radius(track, 0.2)
        assert np.isinf(r[0]) and np.isinf(r[-1])

    def test_second_order_convergence(self):
        # Halving dt cuts the radius error about 4x.
        errs = {}
        for dt in (0.2, 0.1):
            track = self.circle_points(1.5, 3.0, dt)
            r = curvature_radius(track, dt)[1:-1]
            errs[dt] = np.max(np.abs(r - 1.5))
        assert errs[0.2] / errs[0.1] == pytest.approx(4.0, rel=0.15)

    def test_ellipse_stress(self, ellipse):
        track, r_true = ellipse
        r_est = curvature_radius(track, 0.02)
        rel = np.abs(r_est[1:-1] - r_true[1:-1]) / r_true[1:-1]
        assert np.max(rel) < 0.01

    def test_cornering_radii_in_observed_range(self, preset_trials):
        # Study animals averaged 1.0-1.9 m cornering radii; the presets
        # parameterized to those animals must land inside that range,
        # and every lap's radius within 3 % of the commanded one.
        for name, (scenario, _, _, result) in preset_trials.items():
            radii = [m["corner_radius_m"] for m in result.laps]
            assert 1.0 <= np.mean(radii) <= 1.9, (name, np.mean(radii))
            for lap, r in enumerate(radii):
                assert r == pytest.approx(scenario.corner_radius,
                                          rel=0.03), (name, lap, r)

    def test_written_radius_ignores_last_bit_of_heading(self, preset_trials):
        # On the straights the curvature is rounding noise; a 1-ulp
        # heading change must not reach any written R cell.
        _, _, _, result = preset_trials["TT01"]
        kin = result.kin
        p0 = (result.track.x[0], result.track.y[0])
        nudged = replace(kin, psi=np.nextafter(kin.psi, np.inf))
        cells = [[fmt(r) for r in curvature_radius(dead_reckon(k, p0),
                                                   kin.dt)]
                 for k in (kin, nudged)]
        assert cells[0] == cells[1]


class TestAlignAtCorner:
    def test_single_track_corner_at_origin(self):
        t = np.arange(10) * 0.2
        track = Track(t=t, x=t + 3.0, y=2.0 * t - 1.0)
        aligned, = align_at_corner([track], [6])
        assert aligned.x[6] == pytest.approx(0.0, abs=1e-12)
        assert aligned.y[6] == pytest.approx(0.0, abs=1e-12)

    def test_translation_invariance(self):
        t = np.arange(20) * 0.2
        x = np.cos(t)
        y = np.sin(2 * t)
        a = Track(t=t, x=x, y=y)
        b = Track(t=t, x=x + 17.0, y=y - 4.0)
        aligned = align_at_corner([a, b], [12, 12])
        assert np.allclose(aligned[0].x, aligned[1].x, atol=1e-9)
        assert np.allclose(aligned[0].y, aligned[1].y, atol=1e-9)

    def test_mirrored_turns_mirror_about_x(self):
        t = np.arange(30) * 0.2
        # Left turn and its mirror image.
        x = np.sin(0.4 * t)
        y_left = 1.0 - np.cos(0.4 * t)
        a = Track(t=t, x=x, y=y_left)
        b = Track(t=t, x=x, y=-y_left)
        aligned = align_at_corner([a, b], [15, 15])
        assert np.allclose(aligned[0].x, aligned[1].x, atol=1e-9)
        assert np.allclose(aligned[0].y, -aligned[1].y, atol=1e-9)

    def test_simulator_mirrored_laps(self, preset_trials):
        _, _, _, result = preset_trials["TT03"]
        tracks, corners = [], []
        for ev in result.events[:2]:
            sel = slice(ev.start_idx, ev.end_idx)
            tracks.append(Track(t=result.kin.t[sel], x=result.track.x[sel],
                                y=result.track.y[sel]))
            corners.append(ev.corner_idx - ev.start_idx)
        a, b = align_at_corner(tracks, corners)
        # Alternating-turn laps mirror about the x axis after alignment.
        n = min(len(a), len(b))
        ay, by = a.y[:n], b.y[:n]
        assert np.corrcoef(ay, -by)[0, 1] > 0.98

    def test_missing_corner_rejected(self):
        track = Track(t=np.arange(5.0), x=np.arange(5.0), y=np.zeros(5))
        with pytest.raises(ValueError, match="corner index"):
            align_at_corner([track], [9])
