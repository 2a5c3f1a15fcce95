import math

import numpy as np
import pytest

from swimlap.energetics import thrust_power, thrust_work
from swimlap.params import get_animal
from swimlap.pipeline import analyze_trial
from swimlap.simulator import (
    LapScenario,
    SLOW_RATE_HZ,
    NoiseSpec,
    ScenarioError,
    build_lap_phases,
    generate_truth,
    preset_scenario,
    simulate,
    synthesize_tag,
    write_tag_csv,
)

from conftest import make_config

TT01 = get_animal("TT01")


class TestScenarios:
    def test_corner_faster_than_cruise_rejected(self):
        with pytest.raises(ScenarioError, match="infeasible"):
            LapScenario(animal=TT01, cruise_speed=2.0, corner_speed=3.0)

    def test_straight_too_short_rejected(self):
        scn = LapScenario(animal=TT01, straight_length=5.0)
        with pytest.raises(ScenarioError, match="infeasible"):
            build_lap_phases(scn)

    def test_presets_cover_observed_speed_range(self):
        # Mean speeds spanned 2.0 to 3.3 m/s across animals.
        speeds = [preset_scenario(n).cruise_speed
                  for n in ("TT01", "TT02", "TT03")]
        assert min(speeds) == pytest.approx(2.9)
        assert max(speeds) == pytest.approx(5.2)

    def test_preset_trials_span_speed_range(self, preset_trials):
        # Analyzed mean lap speeds keep the slow/fast ordering of the
        # study animals and bracket the observed 2.0-3.3 m/s spread.
        means = {name: np.mean([m["mean_speed_ms"] for m in result.laps])
                 for name, (_, _, _, result) in preset_trials.items()}
        assert means["TT01"] < means["TT03"] < means["TT02"]
        assert means["TT01"] < 2.6
        assert means["TT02"] > 3.2

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset 'TT99'"):
            preset_scenario("TT99")


class TestGroundTruth:
    def test_cruise_segment_constant(self):
        scn = LapScenario(animal=TT01, fluke_amp=0.0)
        truth = generate_truth(scn)
        # Window strictly inside the outgoing cruise: flat channels.
        cruise = next(ph for ph in build_lap_phases(scn)
                      if ph.v0 == ph.v1 == scn.cruise_speed)
        sel = (truth.t > cruise.t0) & (truth.t < cruise.t0 + cruise.duration)
        assert sel.any()
        assert np.allclose(truth.v_meas[sel], scn.cruise_speed, atol=1e-12)
        assert np.allclose(truth.a_t[sel], 0.0, atol=1e-12)
        assert np.allclose(truth.omega[sel], 0.0, atol=1e-12)
        assert np.allclose(truth.a_n[sel], 0.0, atol=1e-12)

    def test_arc_centripetal_identity(self):
        scn = LapScenario(animal=TT01, fluke_amp=0.0)
        truth = generate_truth(scn)
        lap = truth.laps[0]
        arc_half = 0.5 * math.pi * scn.corner_radius / scn.corner_speed
        sel = (truth.t > lap.t_apex - 0.8 * arc_half) & \
              (truth.t < lap.t_apex + 0.8 * arc_half)
        expected = scn.corner_speed ** 2 / scn.corner_radius
        assert np.allclose(np.abs(truth.a_n[sel]), expected, rtol=1e-9)

    def test_peak_angular_velocity_scale(self):
        # Tight-turning preset: peak turn rate on the reported 1.8 rad/s
        # scale.
        truth = generate_truth(preset_scenario("TT03"))
        peak = np.abs(truth.omega).max()
        assert 0.9 <= peak <= 2.7

    def test_path_length_closed_form(self):
        scn = LapScenario(animal=TT01, n_laps=3)
        truth = generate_truth(scn)
        expected = 3 * (2 * scn.straight_length
                        + math.pi * scn.corner_radius)
        assert truth.path_length == pytest.approx(expected, rel=1e-12)

    def test_lap_geometry_alternates(self):
        scn = LapScenario(animal=TT01, n_laps=2)
        truth = generate_truth(scn)
        assert truth.laps[0].turn_sign == 1.0
        assert truth.laps[1].turn_sign == -1.0
        # Track stays within the out-and-back corridor.
        assert truth.y.max() <= 2 * scn.corner_radius + 1e-6
        assert truth.y.min() >= -1e-6

    @pytest.mark.parametrize("preset", ["TT01", "TT02", "TT03"])
    def test_heading_continuous_through_station_pauses(self, preset):
        # psi' = omega, so no step of psi exceeds max|omega| * dt. A
        # station pause drawn on the lap it ends used to jump by pi.
        scn = preset_scenario(preset, n_laps=64, seed=7)
        truth = generate_truth(scn)
        limit = np.abs(truth.omega).max() / SLOW_RATE_HZ + 1e-6
        assert np.abs(np.diff(truth.psi)).max() <= limit

    @pytest.mark.parametrize("n_laps", [1, 3, 64])
    @pytest.mark.parametrize("preset", ["TT01", "TT02", "TT03"])
    def test_course_follows_heading_and_speed(self, preset, n_laps):
        # Each 5 Hz step of (x, y) is the trapezoid of v_xy (cos psi,
        # sin psi) (largest gap 0.036 m), and the heading turns only on
        # the corner arcs and in the station pauses.
        truth = generate_truth(preset_scenario(preset, n_laps=n_laps))
        dt = 1.0 / SLOW_RATE_HZ
        for pos, vel in ((truth.x, truth.v_xy * np.cos(truth.psi)),
                         (truth.y, truth.v_xy * np.sin(truth.psi))):
            step = 0.5 * (vel[1:] + vel[:-1]) * dt
            assert np.abs(np.diff(pos) - step).max() <= 0.05
        turning = np.zeros(len(truth.t), dtype=bool)
        for ph in truth.phases:
            if ph.corner or ph.yaw_turn != 0.0:
                turning |= ((truth.t >= ph.t0)
                            & (truth.t <= ph.t0 + ph.duration))
        assert np.all(truth.omega[~turning] == 0.0)
        assert np.abs(truth.omega[turning]).max() > 0.0

    def test_depth_profile_bounds(self):
        scn = LapScenario(animal=TT01)
        truth = generate_truth(scn)
        assert truth.depth.min() >= min(scn.depth_station, scn.depth_corner) - 1e-9
        assert truth.depth.max() <= max(scn.depth_out, scn.depth_return) + 1e-9


class TestSynthesizeTag:
    def test_stationary_gravity_only(self):
        scn = LapScenario(animal=TT01, fluke_amp=0.0)
        tag = synthesize_tag(generate_truth(scn))
        sel = tag.t_imu < scn.lead_in_s - 0.1
        assert np.allclose(tag.accel[sel], [0.0, 0.0, TT01.g], atol=1e-12)
        assert np.allclose(tag.gyro[sel], 0.0, atol=1e-12)

    def test_seed_determinism_bytes(self, tmp_path):
        scn = LapScenario(animal=TT01, noise=NoiseSpec(accel=0.05, gyro=0.01,
                                                       speed=0.05),
                          seed=99)
        for name in ("a.csv", "b.csv"):
            _, tag = simulate(scn)
            write_tag_csv(tag, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_slow_stream_is_truth_grid(self, default_lap):
        # Without noise the 5 Hz channels are the truth's own samples.
        _, truth, tag, _ = default_lap
        assert np.array_equal(tag.t_slow, truth.t)
        assert np.array_equal(tag.depth, truth.depth)
        assert np.array_equal(tag.speed, truth.v_meas)

    def test_different_seeds_differ(self):
        noisy = dict(noise=NoiseSpec(accel=0.05), seed=1)
        _, tag1 = simulate(LapScenario(animal=TT01, **noisy))
        _, tag2 = simulate(LapScenario(animal=TT01, **{**noisy, "seed": 2}))
        assert not np.array_equal(tag1.accel, tag2.accel)

    def test_recovered_yaw_rms(self, default_lap):
        from swimlap.ingest import master_timeline, resample_linear
        from swimlap.orientation import estimate_orientation

        _, truth, tag, _ = default_lap
        orient = estimate_orientation(tag)
        tl = master_timeline(tag)
        yaw = resample_linear(orient.t, orient.yaw, tl)
        rms = np.sqrt(np.mean((np.degrees(yaw - truth.psi[:len(tl)])) ** 2))
        assert rms < 0.5


class TestClosedLoop:
    def test_zero_noise_recovery(self, default_lap):
        scenario, truth, _, result = default_lap
        lap_truth = truth.laps[0]
        ev = result.events[0]
        # Corner apex within one master-rate sample.
        assert abs(ev.t_c - lap_truth.t_apex) <= 0.2 + 1e-9
        # Corner radius within 2 %.
        radius = result.laps[0]["corner_radius_m"]
        assert abs(radius - scenario.corner_radius) / scenario.corner_radius < 0.02
        # Path length within 0.5 %.
        length = float(np.sum(result.kin.v_xy) * result.kin.dt)
        assert abs(length - truth.path_length) / truth.path_length < 0.005
        # Peak |a_n| within 3 %.
        peak_true = np.abs(truth.a_n).max()
        peak_est = np.abs(result.kin.a_n).max()
        assert abs(peak_est - peak_true) / peak_true < 0.03

    def test_energetics_truth_vs_pipeline(self):
        # Gentle zero-noise profile: every per-lap energetics aggregate
        # from the pipeline lands within 5 % of the truth-channel value.
        scn = LapScenario(animal=TT01, fluke_amp=0.0, cruise_speed=3.5,
                          corner_speed=2.5, accel=0.5, glide_decel=1.2)
        truth, tag = simulate(scn)
        result = analyze_trial(tag, make_config(scn.animal))
        p_true = thrust_power(truth.t, truth.v_meas, truth.a_t, truth.depth,
                              scn.animal)
        lap = truth.laps[0]
        sel = (truth.t >= lap.t_motion_start) & (truth.t <= lap.t_motion_end)
        p_pipe = result.power
        pairs = [
            (thrust_work(p_true.p_thrust[sel], 0.2),
             thrust_work(p_pipe.p_thrust[sel], 0.2)),
            (thrust_work(p_true.p_thrust[sel], 0.2, rectify=False),
             thrust_work(p_pipe.p_thrust[sel], 0.2, rectify=False)),
            (p_true.p_thrust[sel].max(), p_pipe.p_thrust[sel].max()),
            (p_true.p_thrust[sel].mean(), p_pipe.p_thrust[sel].mean()),
            (np.nanmean(p_true.cot[sel]), np.nanmean(p_pipe.cot[sel])),
            (thrust_work(p_true.p_drag[sel], 0.2, rectify=False),
             thrust_work(p_pipe.p_drag[sel], 0.2, rectify=False)),
        ]
        for truth_val, pipe_val in pairs:
            assert abs(pipe_val - truth_val) / abs(truth_val) < 0.05

    def test_noisy_pipeline_still_finds_laps(self):
        scn = preset_scenario(
            "TT03", n_laps=2,
            noise=NoiseSpec(accel=0.05, gyro=0.005, mag=0.01,
                            depth=0.02, speed=0.05))
        truth, tag = simulate(scn)
        result = analyze_trial(tag, make_config(scn.animal))
        assert len(result.events) == 2
        for ev, lap in zip(result.events, truth.laps):
            assert abs(ev.t_c - lap.t_apex) <= 0.4 + 1e-9
