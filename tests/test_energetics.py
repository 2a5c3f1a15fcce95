import numpy as np
import pytest

from swimlap import get_animal
from swimlap.energetics import (
    V_MIN_COT,
    drag_force,
    fit_power_law,
    thrust_power,
    thrust_work,
    wave_drag_factor,
)

TT01 = get_animal("TT01")
TT02 = get_animal("TT02")
TT03 = get_animal("TT03")


def eq8_reference(v, a_t, params, gamma=1.0):
    """Independent one-off evaluation of the thrust-power formula."""
    m_eff = params.mass + 0.4 * params.rho * params.volume
    area = 0.08 * params.mass ** 0.65
    re = v * params.length / params.nu
    cd = 16.99 * re ** -0.47
    return m_eff * a_t * v + 0.5 * params.rho * area * cd * gamma * v ** 3


def at_power(p_thrust, v, params, depth=10.0):
    """Single-sample series whose tangential acceleration makes the thrust
    power exactly ``p_thrust`` (up to rounding) at speed ``v``."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    a_t = (p_thrust / v + drag_force(v, depth, params)) / params.effective_mass
    return thrust_power(np.zeros(len(v)), v, a_t, np.full(len(v), depth),
                        params)


class TestWaveDrag:
    def test_deep_limit(self):
        d = TT01.body_diameter
        assert wave_drag_factor(10.0 * d, d) == 1.0

    def test_surface_anchor(self):
        d = TT01.body_diameter
        assert wave_drag_factor(0.5 * d, d) == 2.5
        assert wave_drag_factor(0.1 * d, d) == 2.5

    def test_midpoint_interpolation(self):
        d = TT01.body_diameter
        assert wave_drag_factor(1.75 * d, d) == pytest.approx(1.75, abs=1e-12)

    def test_monotone_and_at_least_one(self):
        d = TT01.body_diameter
        depths = np.linspace(0.0, 5.0, 200)
        g = wave_drag_factor(depths, d)
        assert np.all(np.diff(g) <= 1e-12)
        assert np.all(g >= 1.0)


class TestDragForce:
    def test_zero_speed(self):
        assert drag_force(0.0, 10.0, TT01) == 0.0

    def test_tt01_reference_point(self):
        # Deep water (gamma = 1): A_s = 2.133 m^2, Re = 4.29e6,
        # C_D = 0.01296, F = -56.9 N.
        f = drag_force(2.0, 10.0, TT01)
        area = 0.08 * 156.2 ** 0.65
        re = 2.0 * 2.24 / 1.044e-6
        cd = 16.99 * re ** -0.47
        expected = -0.5 * 1030.0 * area * cd * 4.0
        assert area == pytest.approx(2.133, abs=2e-3)
        assert re == pytest.approx(4.29e6, rel=1e-3)
        assert cd == pytest.approx(0.01296, abs=2e-5)
        assert f == pytest.approx(expected, rel=1e-12)
        assert f == pytest.approx(-56.9, rel=2e-3)

    def test_linear_in_gamma(self):
        d = TT01.body_diameter
        deep = drag_force(2.0, 10.0, TT01)
        shallow = drag_force(2.0, 0.5 * d, TT01)
        gamma = wave_drag_factor(0.5 * d, d)
        assert shallow == pytest.approx(gamma * deep, rel=1e-12)

    def test_always_opposing(self):
        v = np.linspace(0.0, 6.0, 50)
        assert np.all(drag_force(v, 1.0, TT02) <= 0.0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            drag_force(-1.0, 1.0, TT01)


class TestThrustPower:
    def steady(self, v, params, depth=10.0):
        n = 20
        return thrust_power(np.arange(n) * 0.2, np.full(n, v), np.zeros(n),
                            np.full(n, depth), params)

    def test_equilibrium_balances_drag(self):
        ps = self.steady(2.0, TT01)
        assert np.allclose(ps.p_thrust, -ps.p_drag, rtol=0, atol=0)
        assert np.allclose(ps.f_thrust, -ps.f_drag, rtol=0, atol=0)

    def test_tt01_steady_2ms(self):
        ps = self.steady(2.0, TT01)
        assert ps.p_thrust[0] == pytest.approx(113.9, rel=5e-3)
        assert ps.p_thrust[0] == pytest.approx(
            eq8_reference(2.0, 0.0, TT01), rel=1e-12)

    def test_decomposition_identity(self, preset_trials):
        for _, _, _, result in preset_trials.values():
            ps = result.power
            drag_term = -ps.p_drag
            assert np.allclose(ps.p_thrust - ps.p_inertial - drag_term, 0.0,
                               atol=1e-9)

    def test_signs(self, preset_trials):
        for _, _, _, result in preset_trials.values():
            ps = result.power
            assert np.all(ps.p_drag <= 0.0)
            assert np.all(ps.f_drag <= 0.0)
            assert np.all(ps.gamma >= 1.0)

    def test_peak_power_scale_tt02(self, preset_trials):
        # Fastest animal: peak thrust power on the kW scale (2.3 +/- 0.7
        # reported; accept the 2-sigma band).
        _, _, _, result = preset_trials["TT02"]
        peak = np.mean([m["peak_power_w"] for m in result.laps])
        assert 900.0 <= peak <= 3700.0

    def test_inertial_term_added_mass(self):
        n = 10
        ps = thrust_power(np.arange(n) * 0.2, np.full(n, 2.0),
                          np.full(n, 0.5), np.full(n, 10.0), TT01)
        m_eff = TT01.mass + 0.4 * TT01.rho * TT01.volume
        assert np.allclose(ps.p_inertial, m_eff * 0.5 * 2.0, rtol=1e-12)

    def test_cot_nan_below_guard(self):
        ps = self.steady(0.01, TT01)
        assert np.all(np.isnan(ps.cot))


class TestCostOfTransport:
    """COT as ``thrust_power`` computes it, against hand-checked values."""

    def test_resting_only(self):
        # Deceleration that exactly cancels drag: no thrust, resting cost.
        ps = at_power(0.0, 1.0, TT01)
        assert ps.p_thrust[0] == pytest.approx(0.0, abs=1e-9)
        assert ps.cot[0] == pytest.approx(347.9 / 156.2, rel=1e-12)
        assert ps.cot[0] == pytest.approx(2.227, abs=5e-4)

    def test_steady_2ms(self):
        p = eq8_reference(2.0, 0.0, TT01)
        ps = thrust_power(np.zeros(1), np.full(1, 2.0), np.zeros(1),
                          np.full(1, 10.0), TT01)
        expected = (p / (0.25 * 0.85) + 347.9) / (156.2 * 2.0)
        assert ps.cot[0] == pytest.approx(expected, rel=1e-12)
        assert ps.cot[0] == pytest.approx(2.83, abs=0.01)

    def test_undefined_below_guard(self):
        # NaN at and below the guard speed, finite just above it.
        v = np.array([1e-6, V_MIN_COT, 1.01 * V_MIN_COT])
        ps = thrust_power(np.zeros(3), v, np.zeros(3), np.full(3, 10.0), TT01)
        assert np.isnan(ps.cot[:2]).all() and np.isfinite(ps.cot[2])

    def test_decreasing_in_v_at_fixed_power(self):
        v = np.linspace(0.5, 5.0, 40)
        ps = at_power(200.0, v, TT03)
        assert np.allclose(ps.p_thrust, 200.0, rtol=1e-12)
        assert np.all(np.diff(ps.cot) < 0.0)


class TestNondimensionalize:
    @pytest.mark.parametrize("params,expected", [
        (TT01, 7174.2), (TT02, 11983.1), (TT03, 6492.5)])
    def test_normalization_constants(self, params, expected):
        assert params.norm_constant == pytest.approx(expected, rel=2e-3)

    def test_roundtrip(self):
        # The thrust power of laps on p / N = 0.05 (v / L)^2.4 comes back
        # as that law from fit_summary, the one place that forms p / N.
        from swimlap.pipeline import fit_summary

        v = np.linspace(1.0, 4.0, 6)
        ps = at_power(0.05 * (v / TT02.length) ** 2.4 * TT02.norm_constant,
                      v, TT02)
        laps = [{f"{cls}_{stat}": value for cls in ("af", "cs", "trans")
                 for stat, value in (("mean_speed_ms", vi),
                                     ("mean_power_w", pi))}
                for vi, pi in zip(v, ps.p_thrust)]
        for entry in fit_summary(laps, TT02).values():
            assert entry["b1"] == pytest.approx(0.05, rel=1e-9)
            assert entry["b2"] == pytest.approx(2.4, rel=1e-9)


class TestWork:
    def test_constant_power(self):
        p = np.full(50, 100.0)
        assert thrust_work(p, 0.2) == pytest.approx(1000.0, rel=1e-12)

    def test_partition_additivity(self, rng):
        p = rng.normal(50.0, 80.0, size=200)
        labels = rng.integers(0, 3, size=200)
        total = thrust_work(p, 0.2)
        parts = sum(thrust_work(p, 0.2, window=(labels == k))
                    for k in range(3))
        assert parts == pytest.approx(total, rel=1e-12)

    def test_signed_vs_rectified(self):
        p = np.array([100.0, -50.0, 100.0])
        assert thrust_work(p, 0.2) == pytest.approx(40.0)
        assert thrust_work(p, 0.2, rectify=False) == pytest.approx(30.0)

    def test_drag_work_nonpositive(self, preset_trials):
        _, _, _, result = preset_trials["TT01"]
        assert thrust_work(result.power.p_drag, 0.2, rectify=False) <= 0.0
        for m in result.laps:
            assert m["drag_work_j"] <= 0.0

    def test_empty_window_raises(self):
        with pytest.raises(ValueError, match="empty"):
            thrust_work(np.array([1.0]), 0.2, window=np.array([False]))

    def test_lap_work_consistent_with_mean_power(self, preset_trials):
        # Reported per-lap signed work must equal mean power x duration
        # over the same samples (rectangle rule identity).
        _, _, _, result = preset_trials["TT01"]
        for m, ev in zip(result.laps, result.events):
            n = ev.end_idx - ev.start_idx
            assert m["thrust_work_signed_j"] == pytest.approx(
                m["mean_power_w"] * n * 0.2, rel=1e-9)


class TestFitPowerLaw:
    def test_recovers_reported_af_fit(self):
        # Noise-free samples of the published active-fluking fit.
        v = np.linspace(0.5, 2.5, 30)
        p = 0.0347 * v ** 2.08
        fit = fit_power_law(v, p)
        assert fit.coeff == pytest.approx(0.0347, abs=1e-6)
        assert fit.exponent == pytest.approx(2.08, abs=1e-6)

    def test_linear_case(self):
        v = np.linspace(0.5, 3.0, 20)
        fit = fit_power_law(v, 2.0 * v)
        assert fit.coeff == pytest.approx(2.0, abs=1e-9)
        assert fit.exponent == pytest.approx(1.0, abs=1e-9)

    def test_monte_carlo_exponent_recovery(self):
        # 100 replicates, 50 points, multiplicative perturbations up to
        # 10 %: the exponent estimate stays within +/-0.15 of truth every
        # time.
        rng = np.random.default_rng(2024)
        for _ in range(100):
            v = rng.uniform(0.5, 2.5, 50)
            p = 1.7 * v ** 2.2 * (1.0 + rng.uniform(-0.1, 0.1, 50))
            fit = fit_power_law(v, p)
            assert abs(fit.exponent - 2.2) <= 0.15

    def test_scale_consistency(self):
        v = np.linspace(0.8, 3.0, 25)
        p = 0.5 * v ** 1.7
        base = fit_power_law(v, p)
        scaled = fit_power_law(v, 10.0 * p)
        assert scaled.coeff == pytest.approx(10.0 * base.coeff, rel=1e-9)
        assert scaled.exponent == pytest.approx(base.exponent, abs=1e-9)

    def test_nonpositive_rejected(self):
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="positive"):
            fit_power_law(v, np.array([1.0, -2.0, 3.0]))

    def test_clustered_speeds_rejected(self):
        v = np.full(10, 2.0)
        with pytest.raises(ValueError, match="singular"):
            fit_power_law(v, 3.0 * v ** 2)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match=">= 3"):
            fit_power_law(np.array([1.0, 2.0]), np.array([1.0, 4.0]))

    def test_positive_coefficients_on_trial_fits(self, preset_trials):
        from swimlap.pipeline import fit_summary

        for name, (scenario, _, _, result) in preset_trials.items():
            fits = fit_summary(result.laps, scenario.animal)
            for cls in ("af", "cs"):
                assert fits[cls]["a1"] > 0.0, (name, cls)
                assert fits[cls]["a2"] > 0.0, (name, cls)


class TestCotCurve:
    @pytest.mark.parametrize("params", [TT01, TT02, TT03])
    def test_interior_minimum_exists(self, params):
        # Steady-swimming COT is U-shaped in speed: resting cost dominates
        # slow swimming, drag power fast swimming.
        v = np.linspace(0.1, 8.0, 400)
        ps = thrust_power(np.zeros(len(v)), v, np.zeros(len(v)),
                          np.full(len(v), 10.0), params)
        k = int(np.argmin(ps.cot))
        assert 0 < k < len(v) - 1
