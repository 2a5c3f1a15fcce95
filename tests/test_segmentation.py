from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swimlap import get_animal
from swimlap.ingest import MasterTimeline
from swimlap.kinematics import compute_kinematics
from swimlap.localization import Track, fit_circle
from swimlap.segmentation import (
    CONSISTENT,
    GLIDE,
    REST,
    TRANSIENT,
    LapEvents,
    _runs,
    _true_runs,
    classify_phases,
    corner_circle_fits,
    detect_laps,
    fluking_mask,
    lap_metrics,
    normalize_lap,
    pct_lap_time,
)


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


def synthetic_state(v, pitch_amp=np.radians(10.0), fluke_hz=1.5,
                    pitch_on=None, dt=0.2):
    n = len(v)
    t = np.arange(n) * dt
    pitch_on = np.ones(n, bool) if pitch_on is None else pitch_on
    pitch = pitch_amp * np.sin(2 * np.pi * fluke_hz * t) * pitch_on
    tl = MasterTimeline(t0=0.0, dt=dt, n=n)
    return compute_kinematics(np.asarray(v, float), pitch, np.zeros(n),
                              np.full(n, 1.0), tl)


class TestDetectLaps:
    def test_zero_speed_trial_empty(self):
        kin = synthetic_state(np.zeros(100))
        assert detect_laps(kin) == []

    def test_preset_trial_counts_and_apexes(self, preset_trials):
        for name, (_, truth, _, result) in preset_trials.items():
            assert len(result.events) == len(truth.laps), name
            for ev, lap in zip(result.events, truth.laps):
                assert abs(ev.t_c - lap.t_apex) <= 0.2 + 1e-9, name

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
        base = synthetic_state(v)
        with pytest.warns(UserWarning, match="no cornering signal"):
            events = detect_laps(base)
        padded = synthetic_state(np.concatenate([np.zeros(50), v, np.zeros(50)]))
        with pytest.warns(UserWarning, match="no cornering signal"):
            events_p = detect_laps(padded)
        assert len(events) == len(events_p) == 1
        assert events_p[0].t_s - events[0].t_s == pytest.approx(10.0, abs=1e-9)
        assert events_p[0].duration == pytest.approx(events[0].duration,
                                                     abs=0.21)

    def test_requires_pitch_oscillation(self):
        n = 300
        t = np.arange(n) * 0.2
        v = np.where((t > 10) & (t < 40), 3.0, 0.0)
        kin = synthetic_state(v, pitch_amp=0.0)
        assert detect_laps(kin) == []

    def test_tie_warning(self):
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
        kin = synthetic_state(v)
        with pytest.warns(UserWarning, match="no cornering signal"):
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
        out_af = np.mean([m["out_active_fluking_s"] for m in result.laps])
        ret_af = np.mean([m["ret_active_fluking_s"] for m in result.laps])
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


class TestCornerCircles:
    def test_fit_windows_at_lap_fractions(self, default_lap):
        scenario, _, _, result = default_lap
        ev = result.events[0]
        fits = corner_circle_fits(result.track, result.kin.t, ev)
        assert set(fits) == {20.0, 50.0, 80.0}
        mid = fits[50.0]
        assert mid is not None
        # Smoothed-corner fit sits near the commanded radius.
        assert abs(mid.radius - scenario.corner_radius) < 0.5
        # The straights fit either no circle or a far larger one.
        for frac in (20.0, 80.0):
            fit = fits[frac]
            assert fit is None or fit.radius > 3 * scenario.corner_radius

    def test_lap_rows_carry_circle_columns(self, preset_trials):
        _, _, _, result = preset_trials["TT01"]
        for row in result.laps:
            for key in ("circle_radius_20pct", "circle_radius_50pct",
                        "circle_radius_80pct"):
                assert key in row


class TestNormalizeLap:
    def test_grid_and_corner(self, preset_trials):
        _, _, _, result = preset_trials["TT02"]
        ev = result.events[0]
        norm = normalize_lap({"v": result.kin.v}, result.kin.t, ev,
                             grid_n=201)
        assert norm.pct[0] == 0.0 and norm.pct[-1] == 100.0
        assert len(norm.pct) == 201
        assert 50.0 in norm.pct
        # The mapping itself puts the corner exactly at 50 %.
        rel_c = ev.t_c - ev.t_s
        assert pct_lap_time(rel_c, rel_c, ev.t_e - ev.t_s) == 50.0

    def test_constant_channel_preserved(self, preset_trials):
        _, _, _, result = preset_trials["TT02"]
        ev = result.events[0]
        const = np.full(len(result.kin), 7.7)
        norm = normalize_lap({"c": const}, result.kin.t, ev)
        assert np.allclose(norm.channels["c"], 7.7, atol=0)

    def test_misaligned_channel_rejected(self, preset_trials):
        _, _, _, result = preset_trials["TT02"]
        with pytest.raises(ValueError, match="not aligned"):
            normalize_lap({"bad": np.zeros(3)}, result.kin.t,
                          result.events[0])


class TestLapMetrics:
    def test_zero_motion_metrics_flagged(self):
        from swimlap.energetics import thrust_power
        from swimlap.localization import curvature_radius, dead_reckon

        n = 100
        kin = synthetic_state(np.zeros(n), pitch_amp=0.0)
        power = thrust_power(kin.t, kin.v, kin.a_t, kin.depth,
                             get_animal("TT01"))
        track = dead_reckon(kin, (0.0, 0.0))
        track.radius = curvature_radius(track, 0.2)
        ev = LapEvents(t_s=2.0, t_c=10.0, t_e=18.0, turn_start=9.0,
                       turn_end=11.0, start_idx=10, corner_idx=50,
                       end_idx=90)
        labels = np.full(n, REST, dtype=np.int8)
        m = lap_metrics(kin, power, track, ev, labels, get_animal("TT01"))
        assert m["path_length_m"] == 0.0
        assert m["peak_speed_ms"] == 0.0
        assert m["thrust_work_j"] == 0.0
        assert np.isnan(m["corner_radius_m"])
        assert np.isnan(m["corner_fit_radius_m"])
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

    def test_body_length_speed_roundtrip(self, preset_trials):
        scenario, _, _, result = preset_trials["TT02"]
        for m in result.laps:
            for key in ("af", "cs", "trans"):
                assert m[f"{key}_mean_speed_bl"] * scenario.animal.length \
                    == pytest.approx(m[f"{key}_mean_speed_ms"], rel=1e-12)

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
        scenario, _, _, result = preset_trials[name]
        kin, power, track = result.kin, result.power, result.track
        if cut is not None:
            # Recording stops mid-lap: the last lap runs to the end.
            ev = result.events[lap]
            n = ev.start_idx + int(cut * (ev.end_idx - ev.start_idx))
            kin, power, track = (head(x, n) for x in (kin, power, track))
        events = detect_laps(kin)
        labels = classify_phases(kin, events)
        if cut is not None:
            assert len(events) == lap + 1
            assert events[-1].end_idx == len(kin)

        # The sample index as a channel shows which samples were read.
        idx = np.arange(len(kin), dtype=float)
        ramp = replace(power, p_thrust=idx)
        parabola = Track(t=kin.t, x=idx, y=idx ** 2)
        in_lap = np.zeros(len(kin), dtype=bool)
        for ev in events:
            window = idx[ev.window]
            t = kin.t[ev.window]
            in_lap[ev.window] = True
            assert ev.duration == pytest.approx(len(t) * kin.dt, abs=1e-9)
            assert t[0] == ev.t_s < ev.turn_start
            assert ev.turn_end < t[-1] < ev.t_e

            m = lap_metrics(kin, ramp, track, ev, labels, scenario.animal)
            assert m["peak_power_w"] == window[-1]
            assert m["mean_power_w"] == pytest.approx(window.mean())

            norm = normalize_lap({"i": idx}, kin.t, ev)
            assert norm.channels["i"][0] == window[0]
            assert norm.channels["i"][-1] == window[-1]

            seen = []
            with mock.patch("swimlap.segmentation.fit_circle",
                            side_effect=lambda pts: seen.append(pts)
                            or fit_circle(pts)):
                # One percentage window spanning the whole lap.
                corner_circle_fits(parabola, kin.t, ev, fractions=(50.0,),
                                   width_pct=200.0)
            xs = np.concatenate(seen)[:, 0]
            assert xs.min() == window[0] and xs.max() == window[-1]
        assert np.array_equal(labels != REST, in_lap)
