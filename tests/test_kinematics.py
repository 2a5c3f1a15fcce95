import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swimlap.kinematics import central_diff, compute_kinematics


class TestCentralDiff:
    def test_constant_is_zero(self):
        assert np.all(central_diff(np.full(10, 4.2), 0.2) == 0.0)

    def test_linear_exact_everywhere(self):
        t = np.arange(20) * 0.2
        d = central_diff(3.0 * t, 0.2)
        assert np.allclose(d, 3.0, atol=1e-12)

    def test_quadratic_interior_exact_endpoints_bounded(self):
        dt = 0.2
        t = np.arange(25) * dt
        d = central_diff(t ** 2, dt)
        assert np.allclose(d[1:-1], 2.0 * t[1:-1], atol=1e-10)
        # One-sided first-order ends: error <= dt * |x''| = 0.4
        assert abs(d[0] - 2.0 * t[0]) <= 0.4 + 1e-12
        assert abs(d[-1] - 2.0 * t[-1]) <= 0.4 + 1e-12

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 3"):
            central_diff(np.array([1.0, 2.0]), 0.2)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        rng = np.random.default_rng(42)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        lhs = central_diff(a * x + b * y, 0.2)
        rhs = a * central_diff(x, 0.2) + b * central_diff(y, 0.2)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_second_order_convergence_on_sine(self):
        # max interior error <= (dt^2 / 6) * max|v'''| with v = sin.
        errs = {}
        for dt in (0.2, 0.1):
            t = np.arange(0.0, 10.0, dt)
            d = central_diff(np.sin(t), dt)
            errs[dt] = np.max(np.abs(d[1:-1] - np.cos(t[1:-1])))
            assert errs[dt] <= dt ** 2 / 6.0
        assert errs[0.2] / errs[0.1] == pytest.approx(4.0, rel=0.15)


def make_state(v, yaw, pitch=None, depth=None):
    n = len(v)
    pitch = np.zeros(n) if pitch is None else pitch
    depth = np.full(n, 1.0) if depth is None else depth
    return compute_kinematics(v, pitch, yaw, depth, np.arange(n) * 0.2, 0.2)


class TestComputeKinematics:
    def test_constant_motion_zeroes(self):
        n = 40
        kin = make_state(np.full(n, 2.0), np.full(n, 0.3))
        assert np.allclose(kin.a_t, 0.0, atol=1e-12)
        assert np.allclose(kin.omega, 0.0, atol=1e-12)
        assert np.allclose(kin.a_n, 0.0, atol=1e-12)

    def test_normal_acceleration_scale(self):
        # 3 m/s with yaw advancing at 2 rad/s: a_n = 6, the magnitude the
        # tightest observed corners reach.
        n = 60
        t = np.arange(n) * 0.2
        kin = make_state(np.full(n, 3.0), 2.0 * t)
        assert np.allclose(kin.a_n[1:-1], 6.0, atol=1e-9)

    def test_a_n_identity(self, preset_trials):
        for _, _, _, result in preset_trials.values():
            kin = result.kin
            assert np.array_equal(kin.a_n, kin.omega * kin.v)

    def test_planar_projection(self):
        n = 30
        kin = make_state(np.full(n, 2.0), np.zeros(n),
                         pitch=np.full(n, np.radians(60.0)))
        assert np.allclose(kin.v_xy, 1.0, atol=1e-12)

    def test_speed_clamped_nonnegative(self):
        n = 30
        v = np.zeros(n)
        kin = make_state(v, np.zeros(n))
        assert np.all(kin.v >= 0.0)

    def test_misaligned_channels_rejected(self):
        with pytest.raises(ValueError, match="not aligned"):
            compute_kinematics(np.zeros(9), np.zeros(10), np.zeros(10),
                               np.zeros(10), np.arange(10) * 0.2, 0.2)

    def test_smoothing_window_matches_moving_average(self):
        from swimlap.ingest import moving_average

        n = 50
        rng = np.random.default_rng(3)
        v = np.abs(rng.normal(2.0, 0.5, n))
        kin = make_state(v, np.zeros(n))
        assert np.allclose(kin.v, moving_average(v, 1.0, 0.2), atol=1e-12)


class TestSamplePeriod:
    def test_shifted_tag_uses_configured_dt(self):
        # A tag that starts at 1000.1 s: t[1] - t[0] of its instants is
        # 0.20000000000004547, yet every sum over the lap uses the master
        # period MASTER_DT, so phase seconds are whole samples.
        from dataclasses import replace

        from swimlap.ingest import MASTER_DT
        from swimlap.params import get_animal
        from swimlap.pipeline import RunConfig, analyze_trial
        from swimlap.simulator import preset_scenario, simulate

        _, tag = simulate(preset_scenario("TT03", n_laps=2))
        tag = replace(tag, t_imu=tag.t_imu + 1000.1,
                      t_slow=tag.t_slow + 1000.1)
        cfg = RunConfig(inputs=("unused.csv",), output_dir="unused",
                        animal=get_animal("TT03"))
        result = analyze_trial(tag, cfg)
        assert result.kin.dt == MASTER_DT
        assert result.kin.t[1] - result.kin.t[0] != MASTER_DT
        assert len(result.laps) == 2
        assert [lap["transient_s"] for lap in result.laps] == [
            61 * MASTER_DT, 60 * MASTER_DT]
