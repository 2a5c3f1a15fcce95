from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config
from swimlap import get_animal
from swimlap.kinematics import central_diff, compute_kinematics
from swimlap.pipeline import analyze_trial
from swimlap.segmentation import (
    CONSISTENT,
    GLIDE,
    REST,
    TRANSIENT,
    PCT_GRID,
    LapEvents,
    _runs,
    _true_runs,
    classify_phases,
    detect_laps,
    fluking_mask,
    lap_metrics,
    normalize_lap,
    pct_lap_time,
)
from swimlap.simulator import NoiseSpec, preset_scenario, simulate

# Sensor noise at the level of the simulator's noisy tests.
NOISE = NoiseSpec(accel=0.05, gyro=0.005, mag=0.01, depth=0.02, speed=0.05)


class TestPctLapTime:
    def test_corner_maps_to_50_exactly(self):
        assert pct_lap_time(20.0, 20.0, 30.0) == 50.0
        assert pct_lap_time(7.3, 7.3, 31.1) == 50.0

    def test_branch_examples(self):
        # t_end 30, t_c 20, t 10: warped 7.5 of 30 -> 25 %.
        assert pct_lap_time(10.0, 20.0, 30.0) == pytest.approx(25.0, abs=1e-12)
        # t_end 30, t_c 10, t 20: warped 22.5 of 30 -> 75 %.
        assert pct_lap_time(20.0, 10.0, 30.0) == pytest.approx(75.0, abs=1e-12)

    def test_endpoints(self):
        assert pct_lap_time(0.0, 12.0, 30.0) == 0.0
        assert pct_lap_time(30.0, 12.0, 30.0) == pytest.approx(100.0, abs=1e-12)

    def test_continuity_at_corner(self):
        t_c, t_end = 11.7, 28.9
        eps = 1e-9
        below = pct_lap_time(t_c - eps, t_c, t_end)
        above = pct_lap_time(t_c + eps, t_c, t_end)
        assert abs(below - 50.0) < 1e-6
        assert abs(above - 50.0) < 1e-6

    @given(st.floats(0.05, 0.95), st.floats(5.0, 120.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_increasing(self, frac, t_end):
        t_c = frac * t_end
        t = np.linspace(0.0, t_end, 257)
        pct = pct_lap_time(t, t_c, t_end)
        assert np.all(np.diff(pct) > 0.0)

    @given(st.floats(0.1, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_shift_invariance(self, frac):
        # Uniform time shifts of the lap leave the mapping unchanged
        # because it only sees lap-relative time.
        t_end, shift = 40.0, 123.4
        t_c = frac * t_end
        t = np.linspace(0.0, t_end, 101)
        a = pct_lap_time(t, t_c, t_end)
        b = pct_lap_time((t + shift) - shift, t_c, t_end)
        assert np.allclose(a, b, atol=0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            pct_lap_time(1.0, 0.0, 30.0)
        with pytest.raises(ValueError, match="degenerate"):
            pct_lap_time(1.0, 30.0, 30.0)


def loop_runs(values):
    """Reference: [start, stop) bounds of each run of equal values."""
    runs, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] != values[start]:
            runs.append((start, i))
            start = i
    return runs


class TestRuns:
    @given(st.lists(st.integers(0, 3), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_match_loop_reference(self, values):
        seg = np.array(values, dtype=np.int8)
        assert _runs(seg) == loop_runs(seg)
        mask = seg >= 2
        assert _true_runs(mask) == [(a, b) for a, b in loop_runs(mask)
                                    if mask[a]]


def heading_ramp(t, turn):
    """A 180-degree heading ramp through ``turn`` = (start, half-turn,
    end) times: linear from 0 to pi/2, then from pi/2 to pi."""
    return np.interp(t, turn, [0.0, np.pi / 2, np.pi])


def synthetic_state(v, pitch_amp=np.radians(10.0), fluke_hz=1.5,
                    pitch_on=None, turn=None, dt=0.2):
    """A state from speed ``v``, fluking pitch and, given ``turn``, the
    heading ramp of :func:`heading_ramp` (else a constant heading)."""
    n = len(v)
    t = np.arange(n) * dt
    pitch_on = np.ones(n, bool) if pitch_on is None else pitch_on
    pitch = pitch_amp * np.sin(2 * np.pi * fluke_hz * t) * pitch_on
    yaw = np.zeros(n) if turn is None else heading_ramp(t, turn)
    return compute_kinematics(np.asarray(v, float), pitch, yaw,
                              np.full(n, 1.0), t, dt)


class TestDetectLaps:
    def test_zero_speed_trial_empty(self):
        kin = synthetic_state(np.zeros(100))
        assert detect_laps(kin) == []

    def test_preset_trial_counts_and_apexes(self, preset_trials):
        for name, (_, truth, _, result) in preset_trials.items():
            assert len(result.events) == len(truth.laps), name
            for ev, lap in zip(result.events, truth.laps):
                assert abs(ev.t_c - lap.t_apex) <= 0.02, name

    @pytest.mark.parametrize("name", ["TT01", "TT02", "TT03"])
    @pytest.mark.parametrize("amp_deg", [0.0, 4.0, 15.0])
    def test_every_lap_found_at_any_stroke(self, name, amp_deg):
        # A lap is its turn, so a weak stroke or none loses no lap, with
        # and without noise or a magnetometer.
        for n_laps, noise, mag in [(2, NoiseSpec(), True), (3, NOISE, True),
                                   (4, NOISE, False)]:
            scenario = preset_scenario(
                name, n_laps=n_laps, fluke_amp=np.radians(amp_deg),
                noise=noise)
            truth, tag = simulate(scenario)
            if not mag:
                tag = replace(tag, mag=None)
            events = analyze_trial(tag, make_config(scenario.animal)).events
            assert len(events) == n_laps, (n_laps, noise, mag)
            for ev, lap in zip(events, truth.laps):
                assert abs(ev.t_c - lap.t_apex) <= 0.2, (n_laps, noise, mag)

    def test_turn_durations_match_observed(self, preset_trials):
        # Cornering lasted 1.4-1.6 s on average for every animal.
        for name, (_, _, _, result) in preset_trials.items():
            mean = np.mean([m["turn_duration_s"] for m in result.laps])
            assert 1.3 <= mean <= 1.7, (name, mean)
            for m in result.laps:
                assert 1.3 <= m["turn_duration_s"] <= 1.8

    def test_event_ordering_invariant(self, preset_trials):
        for _, _, _, result in preset_trials.values():
            for ev in result.events:
                assert ev.t_s < ev.turn_start < ev.t_c < ev.turn_end < ev.t_e

    def test_padding_invariance(self):
        n = 400
        t = np.arange(n) * 0.2
        v = np.where((t > 20) & (t < 50), 3.0, 0.0)
        events = detect_laps(synthetic_state(v, turn=(33.0, 35.0, 37.0)))
        padded = synthetic_state(np.concatenate([np.zeros(50), v, np.zeros(50)]),
                                 turn=(43.0, 45.0, 47.0))
        events_p = detect_laps(padded)
        assert len(events) == len(events_p) == 1
        assert events_p[0].t_s - events[0].t_s == pytest.approx(10.0, abs=1e-9)
        assert events_p[0].t_c - events[0].t_c == pytest.approx(10.0, abs=1e-9)
        assert events_p[0].duration == pytest.approx(events[0].duration,
                                                     abs=0.21)

    def test_sprint_without_turn_is_no_lap(self):
        # Fluking speed on a straight heading: no turn, so no lap.
        n = 300
        t = np.arange(n) * 0.2
        v = np.where((t > 10) & (t < 40), 3.0, 0.0)
        assert detect_laps(synthetic_state(v)) == []
        # A turn short of the threshold is no lap either.
        kin = synthetic_state(v, turn=(24.0, 25.0, 26.0))
        kin = replace(kin, psi=kin.psi * 0.7)
        assert detect_laps(kin) == []

    def test_pitch_free_turn_is_one_lap(self):
        n = 300
        t = np.arange(n) * 0.2
        v = np.where((t > 10) & (t < 40), 3.0, 0.0)
        kin = synthetic_state(v, pitch_amp=0.0, turn=(24.0, 25.0, 26.0))
        events = detect_laps(kin)
        assert len(events) == 1
        assert events[0].t_c == pytest.approx(25.0, abs=0.02)
        assert events[0].corner_idx == 125

    def test_corner_at_asymmetric_half_turn(self):
        # Heading channels as given, unsmoothed: 2 s into the half-turn at
        # 30 s, 1 s out of it. |a_n| peaks in the fast half, yet the corner
        # is the half-turn instant.
        n = 400
        t = np.arange(n) * 0.2
        v = np.where((t > 20) & (t < 50), 3.0, 0.0)
        kin = synthetic_state(v)
        psi = heading_ramp(t, (28.0, 30.0, 31.0))
        omega = central_diff(psi, kin.dt)
        kin = replace(kin, psi=psi, omega=omega, a_n=omega * kin.v)
        events = detect_laps(kin)
        assert len(events) == 1
        ev = events[0]
        assert abs(ev.t_c - 30.0) <= 0.02
        assert ev.corner_idx == 150
        assert t[np.argmax(np.abs(kin.a_n))] > 30.1
        assert ev.turn_start < 28.2 and 31.0 < ev.turn_end

    @given(psi=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=60),
           moving=st.lists(st.booleans(), min_size=60, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_any_heading_gives_ordered_events(self, psi, moving):
        # Whatever the heading does, each lap found has a half-turn
        # crossing, and LapEvents accepts the order of its events.
        v = np.where(moving[:len(psi)], 3.0, 0.0)
        kin = replace(synthetic_state(v), psi=np.array(psi))
        for ev in detect_laps(kin):
            assert ev.start_idx <= ev.corner_idx < ev.end_idx

    def test_event_order_enforced(self):
        ev_args = dict(t_s=0.0, t_c=5.0, t_e=10.0, turn_start=4.0,
                       turn_end=6.0)
        LapEvents(**ev_args)
        with pytest.raises(ValueError, match="out of order"):
            LapEvents(t_s=0.0, t_c=3.0, t_e=10.0, turn_start=4.0,
                      turn_end=6.0)


class TestClassifyPhases:
    def test_trapezoid_profile(self):
        # Ramp up, hold, ramp down with fluking throughout: transient,
        # consistent speed, transient.
        ramp = np.linspace(0.0, 3.0, 40)
        v = np.concatenate([np.zeros(30), ramp, np.full(120, 3.0),
                            ramp[::-1], np.zeros(30)])
        kin = synthetic_state(v, turn=(25.0, 26.0, 27.0))
        events = detect_laps(kin)
        assert len(events) == 1
        labels = classify_phases(kin, events)
        ev = events[0]
        lap_labels = labels[ev.start_idx:ev.end_idx]
        # Starts transient, has a consistent-speed core, ends transient.
        assert lap_labels[0] == TRANSIENT
        mid = (ev.start_idx + ev.end_idx) // 2 - ev.start_idx
        assert lap_labels[mid] == CONSISTENT
        assert lap_labels[-1] == TRANSIENT
        assert np.all(labels[:25] == REST)

    def test_terminal_glide(self, preset_trials):
        # Fluking stops before the lap end while speed decays: the lap
        # tail is labeled glide.
        _, _, _, result = preset_trials["TT03"]
        labels = result.labels
        for ev in result.events:
            assert labels[ev.end_idx - 2] == GLIDE

    def test_labels_partition_each_lap(self, preset_trials):
        for _, _, _, result in preset_trials.values():
            for m in result.laps:
                total = (m["transient_s"] + m["consistent_s"] + m["glide_s"])
                n = round(m["duration_s"] / 0.2)
                assert total == pytest.approx(n * 0.2, abs=1e-9)

    def test_tt03_phase_fractions(self, preset_trials):
        # Table-level check: outgoing AF ~50 %, return AF ~37 %, return
        # glide ~13 % of the lap for the TT03 parameterization (+/- 5).
        _, _, _, result = preset_trials["TT03"]
        dur = np.mean([m["duration_s"] for m in result.laps])
        out_af = np.mean([m["out_transient_s"] + m["out_consistent_s"]
                          for m in result.laps])
        ret_af = np.mean([m["ret_transient_s"] + m["ret_consistent_s"]
                          for m in result.laps])
        glide = np.mean([m["ret_glide_s"] for m in result.laps])
        assert abs(out_af / dur * 100 - 50.0) <= 5.0
        assert abs(ret_af / dur * 100 - 37.0) <= 5.0
        assert abs(glide / dur * 100 - 13.0) <= 5.0

    def test_rest_outside_laps(self, preset_trials):
        _, _, _, result = preset_trials["TT01"]
        labels = result.labels
        first = result.events[0]
        assert np.all(labels[:first.start_idx] == REST)

    def test_fluking_mask_amplitude_threshold(self):
        v = np.full(200, 3.0)
        strong = synthetic_state(v, pitch_amp=np.radians(10.0))
        weak = synthetic_state(v, pitch_amp=np.radians(2.0))
        assert fluking_mask(strong).mean() > 0.9
        assert fluking_mask(weak).mean() < 0.1


class TestNormalizeLap:
    def test_grid_and_corner(self, preset_trials):
        _, _, _, result = preset_trials["TT02"]
        ev = result.events[0]
        w = ev.window
        norm = normalize_lap({"v": result.kin.v[w]}, result.kin.t[w],
                             ev.t_s, ev.t_c, ev.t_e)
        assert PCT_GRID[0] == 0.0 and PCT_GRID[-1] == 100.0
        assert len(PCT_GRID) == len(norm["v"]) == 201
        assert 50.0 in PCT_GRID
        # The mapping itself puts the corner exactly at 50 %.
        rel_c = ev.t_c - ev.t_s
        assert pct_lap_time(rel_c, rel_c, ev.t_e - ev.t_s) == 50.0

    def test_constant_channel_preserved(self, preset_trials):
        _, _, _, result = preset_trials["TT02"]
        ev = result.events[0]
        t = result.kin.t[ev.window]
        norm = normalize_lap({"c": np.full(len(t), 7.7)}, t,
                             ev.t_s, ev.t_c, ev.t_e)
        assert np.allclose(norm["c"], 7.7, atol=0)

    def test_misaligned_channel_rejected(self, preset_trials):
        _, _, _, result = preset_trials["TT02"]
        ev = result.events[0]
        with pytest.raises(ValueError, match="not aligned"):
            normalize_lap({"bad": np.zeros(3)}, result.kin.t[ev.window],
                          ev.t_s, ev.t_c, ev.t_e)


class TestLapMetrics:
    def test_zero_motion_metrics_flagged(self):
        from swimlap.energetics import thrust_power

        n = 100
        kin = synthetic_state(np.zeros(n), pitch_amp=0.0)
        power = thrust_power(kin.t, kin.v, kin.a_t, kin.depth,
                             get_animal("TT01"))
        ev = LapEvents(t_s=2.0, t_c=10.0, t_e=18.0, turn_start=9.0,
                       turn_end=11.0, start_idx=10, corner_idx=50,
                       end_idx=90)
        labels = np.full(n, REST, dtype=np.int8)
        m = lap_metrics(kin, power, ev, labels)
        assert m["path_length_m"] == 0.0
        assert m["peak_speed_ms"] == 0.0
        assert m["thrust_work_j"] == 0.0
        assert np.isnan(m["corner_radius_m"])
        assert np.isnan(m["mean_cot"])

    def test_tt02_lap_duration_band(self, preset_trials):
        # Fastest animal finished laps in 23.1 +/- 2.6 s.
        _, _, _, result = preset_trials["TT02"]
        mean = np.mean([m["duration_s"] for m in result.laps])
        assert 20.5 <= mean <= 25.7

    def test_path_length_positive(self, preset_trials):
        for _, _, _, result in preset_trials.values():
            for m in result.laps:
                assert m["path_length_m"] > 0.0

    def test_metrics_against_analytic_scenario(self, default_lap):
        # Known-profile lap: each summary metric lands on its commanded
        # value within the stated tolerance.
        scenario, truth, _, result = default_lap
        m = result.laps[0]
        lap = truth.laps[0]
        # Boundaries clip where speed crosses the threshold, so measured
        # duration sits within the accel/glide ramp time of the truth.
        assert abs(m["duration_s"] - (lap.t_motion_end - lap.t_motion_start)) < 4.0
        assert m["t_corner"] == pytest.approx(lap.t_apex, abs=0.2 + 1e-9)
        assert m["peak_speed_ms"] == pytest.approx(scenario.cruise_speed,
                                                   rel=0.02)
        assert m["peak_omega_rads"] == pytest.approx(
            scenario.corner_speed / scenario.corner_radius, rel=0.05)
        assert m["path_length_m"] == pytest.approx(truth.path_length,
                                                   rel=0.01)
        assert m["corner_radius_m"] == pytest.approx(
            scenario.corner_radius, rel=0.02)
        assert m["turn_duration_s"] == pytest.approx(
            np.pi * scenario.corner_radius / scenario.corner_speed - 0.1,
            abs=0.15)
        assert m["mean_cot"] > 0.0
        assert m["thrust_work_j"] >= m["thrust_work_signed_j"]


def head(series, n):
    """``series`` with every per-sample array cut to its first n samples."""
    return replace(series, **{
        f.name: getattr(series, f.name)[:n] for f in fields(series)
        if isinstance(getattr(series, f.name), np.ndarray)})


class TestLapWindow:
    """Every per-lap consumer reads exactly the samples ``ev.window``."""

    @given(name=st.sampled_from(["TT01", "TT02", "TT03"]),
           lap=st.integers(0, 7),
           cut=st.one_of(st.none(), st.floats(0.6, 0.95)))
    @settings(max_examples=30, deadline=None)
    def test_consumers_share_the_window(self, preset_trials, name, lap, cut):
        _, _, _, result = preset_trials[name]
        kin, power = result.kin, result.power
        if cut is not None:
            # Recording stops mid-lap: the last lap runs to the end.
            ev = result.events[lap]
            n = ev.start_idx + int(cut * (ev.end_idx - ev.start_idx))
            kin, power = head(kin, n), head(power, n)
        events = detect_laps(kin)
        labels = classify_phases(kin, events)
        if cut is not None:
            assert len(events) == lap + 1
            assert events[-1].end_idx == len(kin)

        # The sample index as a channel shows which samples were read.
        idx = np.arange(len(kin), dtype=float)
        ramp = replace(power, p_thrust=idx)
        in_lap = np.zeros(len(kin), dtype=bool)
        for ev in events:
            window = idx[ev.window]
            t = kin.t[ev.window]
            in_lap[ev.window] = True
            # The report's rule finds the window from the event times.
            assert np.array_equal(
                np.flatnonzero((kin.t >= ev.t_s) & (kin.t < ev.t_e)), window)
            assert ev.duration == pytest.approx(len(t) * kin.dt, abs=1e-9)
            assert t[0] == ev.t_s < ev.turn_start
            assert ev.turn_end < t[-1] < ev.t_e

            m = lap_metrics(kin, ramp, ev, labels)
            assert m["peak_power_w"] == window[-1]
            assert m["mean_power_w"] == pytest.approx(window.mean())

            norm = normalize_lap({"i": window}, t, ev.t_s, ev.t_c, ev.t_e)
            assert norm["i"][0] == window[0]
            assert norm["i"][-1] == window[-1]
        assert np.array_equal(labels != REST, in_lap)
