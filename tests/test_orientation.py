import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from swimlap.ingest import TagSeries, master_timeline, resample_linear
from swimlap.orientation import estimate_orientation
from swimlap.simulator import (MAG_INCLINATION, NoiseSpec, preset_scenario,
                               simulate)

NOISE = NoiseSpec(accel=0.05, gyro=0.005, mag=0.01, depth=0.02, speed=0.02)
GRAVITY_UP = np.array([0.0, 0.0, 9.81])
FIELD = np.array([math.cos(MAG_INCLINATION), 0.0, -math.sin(MAG_INCLINATION)])


def body_from_world(roll, pitch, yaw):
    """Matrix taking world vectors into the body frame of a pose.

    The body-to-world rotation is Rz(yaw) Ry(-pitch) Rx(roll), pitch
    positive nose-up; its transpose maps world vectors to the body.
    """
    cr, sr = math.cos(roll), math.sin(roll)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cy, sy = math.cos(yaw), math.sin(yaw)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    ry = np.array([[cp, 0.0, -sp], [0.0, 1.0, 0.0], [sp, 0.0, cp]])
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    return (rz @ ry @ rx).T


def held_tag(accel, gyro=(0.0, 0.0, 0.0), mag=None, seconds=2.0):
    """A resting tag (zero speed) whose IMU reads the same every sample."""
    t_imu = np.arange(int(round(seconds * 50)) + 1) / 50.0
    t_slow = np.arange(int(round(seconds * 5)) + 1) / 5.0
    n = len(t_imu)
    return TagSeries(
        t_imu=t_imu, accel=np.tile(accel, (n, 1)), gyro=np.tile(gyro, (n, 1)),
        mag=None if mag is None else np.tile(mag, (n, 1)),
        t_slow=t_slow, depth=np.zeros(len(t_slow)),
        speed=np.zeros(len(t_slow)))


def noisy_trial(preset, n_laps, seed, with_mag=True):
    truth, tag = simulate(preset_scenario(preset, n_laps=n_laps, seed=seed,
                                          noise=NOISE))
    return truth, (tag if with_mag else replace(tag, mag=None))


def max_pitch_error(truth, tag):
    """Largest |pitch - truth| at the 5 Hz analysis instants."""
    orient = estimate_orientation(tag)
    tl = master_timeline(tag)
    pitch = resample_linear(orient.t, orient.pitch, tl)
    return np.max(np.abs(pitch - truth.theta[:len(tl)]))


class TestStaticPose:
    def test_pose_grid(self):
        # The simulator never rolls; held poses are the roll coverage.
        degrees = itertools.product((-60, -15, 0, 30, 60),
                                    (-40, -10, 0, 25, 40),
                                    (-170, -90, 0, 45, 170))
        for roll, pitch, yaw in (map(math.radians, p) for p in degrees):
            to_body = body_from_world(roll, pitch, yaw)
            tag = held_tag(to_body @ GRAVITY_UP, mag=to_body @ FIELD)
            out = estimate_orientation(tag)
            assert np.max(np.abs(out.pitch - pitch)) < 1e-9, (roll, pitch, yaw)
            assert np.max(np.abs(out.yaw - yaw)) < 1e-9, (roll, pitch, yaw)

    def test_without_mag_heading_is_initial(self):
        to_body = body_from_world(0.3, -0.2, 1.0)
        out = estimate_orientation(held_tag(to_body @ GRAVITY_UP),
                                   initial_heading=0.7)
        assert np.max(np.abs(out.pitch + 0.2)) < 1e-12
        assert np.all(out.yaw == 0.7)


class TestAhrsUpdate:
    def test_stationary_fixed_point(self):
        # Level, still, no magnetometer: the pose never leaves identity.
        out = estimate_orientation(held_tag(GRAVITY_UP))
        assert np.max(np.abs(out.pitch)) < 1e-12
        assert np.all(out.yaw == 0.0)

    def test_static_convergence_to_tilt(self):
        # Accelerometer tilted 10 deg about body y; the filter finds it.
        pitch_true = math.radians(10.0)
        accel = 9.81 * np.array([math.sin(pitch_true), 0.0,
                                 math.cos(pitch_true)])
        out = estimate_orientation(held_tag(accel, seconds=60.0))
        assert np.max(np.abs(out.pitch - pitch_true)) < math.radians(0.1)

    def test_mag_locks_heading(self):
        yaw_true = math.radians(40.0)
        incl = math.radians(40.0)
        m_world = np.array([math.cos(incl), 0.0, -math.sin(incl)])
        mag_body = body_from_world(0.0, 0.0, yaw_true) @ m_world
        out = estimate_orientation(held_tag(GRAVITY_UP, mag=mag_body,
                                            seconds=160.0))
        assert np.max(np.abs(out.yaw - yaw_true)) < math.radians(0.5)

    def test_gyro_only_quarter_turn(self):
        # One second at pi/2 rad/s about body z, level, no magnetometer.
        tag = held_tag(GRAVITY_UP, gyro=(0.0, 0.0, math.pi / 2), seconds=1.0)
        out = estimate_orientation(tag)
        assert abs(out.yaw[-1] - math.pi / 2) < 1e-12
        assert np.max(np.abs(out.pitch)) < 1e-12

    def test_zero_accel_raises(self):
        with pytest.raises(ValueError, match="zero-norm accelerometer"):
            estimate_orientation(held_tag(np.zeros(3)))


class TestPoseFromMeasurements:
    def test_level(self):
        out = estimate_orientation(held_tag(GRAVITY_UP), initial_heading=0.3)
        assert np.all(out.pitch == 0.0) and np.all(out.yaw == 0.3)

    def test_tilt(self):
        accel = 9.81 * np.array([math.sin(0.2), 0.0, math.cos(0.2)])
        out = estimate_orientation(held_tag(accel))
        assert np.max(np.abs(out.pitch - 0.2)) < 1e-12


class TestEstimateOrientation:
    def test_zero_noise_yaw_rms(self, default_lap):
        scenario, truth, tag, _ = default_lap
        orient = estimate_orientation(tag)
        tl = master_timeline(tag)
        yaw5 = resample_linear(orient.t, orient.yaw, tl)
        err = np.degrees(yaw5 - truth.psi[:len(tl)])
        assert np.sqrt(np.mean(err ** 2)) < 0.5

    def test_yaw_unwrapped(self, preset_trials):
        _, _, tag, _ = preset_trials["TT03"]
        orient = estimate_orientation(tag)
        # 8 laps of +/-pi turns plus station turn-arounds never jump.
        assert np.max(np.abs(np.diff(orient.yaw))) < 1.0

    def test_without_mag_uses_initial_heading(self, default_lap):
        _, truth, tag, _ = default_lap
        tag_nomag = replace(tag, mag=None)
        orient = estimate_orientation(tag_nomag, initial_heading=0.0)
        tl = master_timeline(tag)
        yaw5 = resample_linear(orient.t, orient.yaw, tl)
        err = np.degrees(yaw5 - truth.psi[:len(tl)])
        assert np.sqrt(np.mean(err ** 2)) < 3.0

    @pytest.mark.parametrize("preset", ["TT01", "TT02", "TT03"])
    def test_zero_noise_pitch(self, preset_trials, preset):
        _, truth, tag, _ = preset_trials[preset]
        assert max_pitch_error(truth, tag) <= 0.02

    @pytest.mark.parametrize("preset,with_mag", [
        ("TT02", True), ("TT02", False), ("TT03", True), ("TT03", False)],
        ids=["TT02_mag", "TT02_nomag", "TT03_mag", "TT03_nomag"])
    def test_noisy_pitch(self, preset, with_mag):
        assert max_pitch_error(*noisy_trial(preset, 4, 11, with_mag)) <= 0.03


def test_orientation_memory_peak(trial_16lap):
    # Every step is a whole-array numpy expression; freeing each temporary
    # once used keeps the peak near the input's own size.
    for tag in (trial_16lap, replace(trial_16lap, mag=None)):
        imu_bytes = sum(a.nbytes for a in (tag.t_imu, tag.accel, tag.gyro,
                                           tag.mag) if a is not None)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            estimate_orientation(tag)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * imu_bytes, (tag.mag is None, peak / imu_bytes)
