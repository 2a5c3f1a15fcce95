import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swimlap import orientation
from swimlap.ingest import master_timeline, resample_linear
from swimlap.orientation import (
    _ahrs_step,
    estimate_orientation,
    euler_to_quat,
    pose_from_measurements,
    quat_to_euler,
)
from swimlap.simulator import NoiseSpec, preset_scenario, simulate

GRAVITY = np.array([0.0, 0.0, 9.81])
NOISE = NoiseSpec(accel=0.05, gyro=0.005, mag=0.01, depth=0.02, speed=0.02)


def quat_multiply(a, b):
    """Hamilton product of two (w, x, y, z) quaternions."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_rotate(q, v):
    """Rotate vector ``v`` by the unit quaternion ``q``: q (0, v) q*."""
    conj = np.array([q[0], -q[1], -q[2], -q[3]])
    return quat_multiply(quat_multiply(q, np.concatenate(([0.0], v))),
                         conj)[1:]


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    norm = math.sqrt(float(np.dot(q, q)))
    if norm == 0.0:
        raise ValueError("zero-norm quaternion")
    return q / norm


def ahrs_update(q, gyro, accel, mag, beta, dt):
    """The package's filter step on arrays: one call of ``_ahrs_step``."""
    mag = None if mag is None else np.asarray(mag, dtype=float).tolist()
    return np.array(_ahrs_step(
        *np.asarray(q, dtype=float).tolist(),
        *np.asarray(gyro, dtype=float).tolist(),
        *np.asarray(accel, dtype=float).tolist(),
        mag, float(beta), float(dt)))


def reference_euler(w, x, y, z):
    """The per-sample scalar conversion that quat_to_euler replaced."""
    s = max(-1.0, min(1.0, 2.0 * (x * z - w * y)))
    return (math.atan2(2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
            math.asin(s),
            math.atan2(2.0 * (x * y + w * z), 1.0 - 2.0 * (y * y + z * z)))


def reference_ahrs_update(q, gyro, accel, mag, beta, dt):
    """The numpy form of the AHRS step that the scalar step replaced."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    a_norm = math.sqrt(accel[0] ** 2 + accel[1] ** 2 + accel[2] ** 2)
    if a_norm == 0.0:
        raise ValueError("zero-norm accelerometer vector")
    w, x, y, z = q
    gx, gy, gz = gyro

    q_dot = 0.5 * np.array([
        -x * gx - y * gy - z * gz,
        w * gx + y * gz - z * gy,
        w * gy - x * gz + z * gx,
        w * gz + x * gy - y * gx,
    ])

    if beta > 0.0:
        ax, ay, az = accel[0] / a_norm, accel[1] / a_norm, accel[2] / a_norm
        f1 = 2.0 * (x * z - w * y) - ax
        f2 = 2.0 * (w * x + y * z) - ay
        f3 = 1.0 - 2.0 * (x * x + y * y) - az
        s_w = -2.0 * y * f1 + 2.0 * x * f2
        s_x = 2.0 * z * f1 + 2.0 * w * f2 - 4.0 * x * f3
        s_y = -2.0 * w * f1 + 2.0 * z * f2 - 4.0 * y * f3
        s_z = 2.0 * x * f1 + 2.0 * y * f2

        m_norm = 0.0
        if mag is not None:
            m_norm = math.sqrt(mag[0] ** 2 + mag[1] ** 2 + mag[2] ** 2)
        if m_norm > 0.0:
            mx, my, mz = mag[0] / m_norm, mag[1] / m_norm, mag[2] / m_norm
            h = quat_rotate(np.array([w, x, y, z]), np.array([mx, my, mz]))
            bx = math.sqrt(h[0] ** 2 + h[1] ** 2)
            bz = h[2]
            p1 = bx * (1.0 - 2.0 * (y * y + z * z)) + bz * 2.0 * (x * z - w * y) - mx
            p2 = bx * 2.0 * (x * y - w * z) + bz * 2.0 * (w * x + y * z) - my
            p3 = bx * 2.0 * (x * z + w * y) + bz * (1.0 - 2.0 * (x * x + y * y)) - mz
            s_w += (-2.0 * bz * y) * p1 + (-2.0 * bx * z + 2.0 * bz * x) * p2 \
                + (2.0 * bx * y) * p3
            s_x += (2.0 * bz * z) * p1 + (2.0 * bx * y + 2.0 * bz * w) * p2 \
                + (2.0 * bx * z - 4.0 * bz * x) * p3
            s_y += (-4.0 * bx * y - 2.0 * bz * w) * p1 \
                + (2.0 * bx * x + 2.0 * bz * z) * p2 \
                + (2.0 * bx * w - 4.0 * bz * y) * p3
            s_z += (-4.0 * bx * z + 2.0 * bz * x) * p1 \
                + (-2.0 * bx * w + 2.0 * bz * y) * p2 + (2.0 * bx * x) * p3

        s_norm = math.sqrt(s_w ** 2 + s_x ** 2 + s_y ** 2 + s_z ** 2)
        if s_norm > 0.0:
            q_dot -= beta * np.array([s_w, s_x, s_y, s_z]) / s_norm

    return quat_normalize(np.array([w, x, y, z]) + q_dot * dt)


def reference_estimate_orientation(tag, step=ahrs_update, beta=0.1,
                                   settle_s=1.0):
    """The per-sample loop: ``step`` and ``reference_euler`` per sample.

    With the default step this is estimate_orientation as it was before
    the Euler conversion went to one vectorized call per block. Returns
    pitch, unwrapped yaw and the state quaternion after each sample.
    """
    n, t, mag = tag.n_imu, tag.t_imu, tag.mag
    mag0 = mag[0] if mag is not None else None
    q = euler_to_quat(*pose_from_measurements(tag.accel[0], mag0, 0.0))
    dt0 = float(t[1] - t[0])
    for _ in range(int(round(settle_s / dt0))):
        q = step(q, np.zeros(3), tag.accel[0], mag0, beta, dt0)
    states = np.empty((n, 4))
    states[0] = q
    for i in range(1, n):
        q = step(q, tag.gyro[i], tag.accel[i],
                 mag[i] if mag is not None else None,
                 beta, float(t[i] - t[i - 1]))
        states[i] = q
    _, pitch, yaw = np.array([reference_euler(*q)
                              for q in states.tolist()]).T
    return pitch, np.unwrap(yaw), states


unit_quats = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.dot(q, q) > 1e-6).map(quat_normalize)
# At the +-pi/2 gimbal 2(xz - wy) rounds past +-1 for about one in five.
gimbal_quats = st.builds(
    lambda roll, yaw, sign: euler_to_quat(roll, sign * math.pi / 2, yaw),
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.sampled_from((-1, 1)))


class TestEulerQuat:
    def test_identity(self):
        assert quat_to_euler(np.array([1.0, 0, 0, 0])) == (0.0, 0.0, 0.0)

    def test_pure_yaw(self):
        q = euler_to_quat(0.0, 0.0, math.pi / 2)
        _, _, yaw = quat_to_euler(q)
        assert abs(yaw - math.pi / 2) < 1e-12

    def test_composed_yaw_pitch(self):
        q = quat_multiply(euler_to_quat(0, 0, math.radians(30)),
                          euler_to_quat(0, math.radians(20), 0))
        roll, pitch, yaw = quat_to_euler(q)
        assert abs(roll) < 1e-9
        assert abs(pitch - math.radians(20)) < 1e-9
        assert abs(yaw - math.radians(30)) < 1e-9

    @given(st.floats(-3.0, 3.0), st.floats(-1.4, 1.4), st.floats(-3.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, roll, pitch, yaw):
        r, p, y = quat_to_euler(euler_to_quat(roll, pitch, yaw))
        assert abs(r - roll) < 1e-9
        assert abs(p - pitch) < 1e-9
        assert abs(y - yaw) < 1e-9

    def test_gimbal_clamped(self):
        q = euler_to_quat(0.0, math.pi / 2, 0.0)
        _, pitch, _ = quat_to_euler(q)
        assert abs(pitch - math.pi / 2) < 1e-9
        # Here 2(xz - wy) rounds past 1; the clamp keeps pitch finite.
        w, x, y, z = q = euler_to_quat(2.0, math.pi / 2, 0.0)
        assert 2.0 * (x * z - w * y) > 1.0
        assert quat_to_euler(q)[1] == math.pi / 2

    @given(st.lists(st.one_of(unit_quats, gimbal_quats), min_size=1,
                    max_size=50))
    @example([euler_to_quat(2.0, math.pi / 2, 0.0),
              euler_to_quat(2.0, -math.pi / 2, 0.0)])
    @settings(max_examples=200, deadline=None)
    def test_vectorized_matches_scalar(self, quats):
        q = np.array(quats)
        ref = np.array([reference_euler(*row) for row in q.tolist()]).T
        for name, out, want in zip(("roll", "pitch", "yaw"),
                                   quat_to_euler(q), ref):
            assert out.shape == (len(quats),), name
            np.testing.assert_array_max_ulp(out, want, maxulp=4)


class TestAhrsUpdate:
    def test_stationary_fixed_point(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        out = ahrs_update(q, np.zeros(3), GRAVITY, None, beta=0.1, dt=0.02)
        assert np.allclose(out, q, atol=1e-12)

    def test_gyro_only_quarter_turn(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        for _ in range(50):
            q = ahrs_update(q, np.array([0, 0, math.pi / 2]), GRAVITY,
                            None, beta=0.0, dt=0.02)
        _, _, yaw = quat_to_euler(q)
        assert abs(yaw - math.pi / 2) < 1e-3

    def test_gyro_only_matches_axis_angle_second_order(self):
        # Error vs the closed-form rotation shrinks ~4x when dt halves.
        rate = np.array([0.3, -0.2, 0.9])
        norm = np.linalg.norm(rate)
        axis = rate / norm

        def run(dt, duration=2.0):
            q = np.array([1.0, 0.0, 0.0, 0.0])
            for _ in range(int(round(duration / dt))):
                q = ahrs_update(q, rate, GRAVITY, None, beta=0.0, dt=dt)
            angle = norm * duration
            exact = np.concatenate(([math.cos(angle / 2)],
                                    math.sin(angle / 2) * axis))
            return min(np.linalg.norm(q - exact), np.linalg.norm(q + exact))

        e1, e2 = run(0.02), run(0.01)
        assert e2 < e1
        assert e1 / e2 == pytest.approx(4.0, rel=0.35)

    def test_static_convergence_to_tilt(self):
        # Accelerometer tilted 10 deg about body y; filter must find it.
        pitch_true = math.radians(10.0)
        accel = 9.81 * np.array([math.sin(pitch_true), 0.0,
                                 math.cos(pitch_true)])
        q = np.array([1.0, 0.0, 0.0, 0.0])
        for _ in range(3000):
            q = ahrs_update(q, np.zeros(3), accel, None, beta=0.1, dt=0.02)
        _, pitch, _ = quat_to_euler(q)
        assert abs(pitch - pitch_true) < math.radians(0.1)

    def test_zero_accel_raises(self):
        with pytest.raises(ValueError, match="zero-norm accelerometer"):
            ahrs_update(np.array([1.0, 0, 0, 0]), np.zeros(3), np.zeros(3),
                        None, beta=0.1, dt=0.02)

    def test_bad_dt_raises(self):
        with pytest.raises(ValueError, match="dt"):
            ahrs_update(np.array([1.0, 0, 0, 0]), np.zeros(3), GRAVITY,
                        None, beta=0.1, dt=0.0)

    def test_unit_norm_preserved_many_steps(self):
        # Renormalization keeps |q| pinned each step, so drift stays at
        # float epsilon no matter how many updates run.
        rng = np.random.default_rng(7)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        mag = np.array([0.7, 0.0, -0.7])
        for i in range(20_000):
            gyro = rng.normal(0.0, 1.0, 3)
            q = ahrs_update(q, gyro, GRAVITY, mag if i % 2 else None,
                            beta=0.1, dt=0.02)
            assert abs(np.dot(q, q) - 1.0) < 1e-12

    def test_mag_locks_heading(self):
        yaw_true = math.radians(40.0)
        q_true = euler_to_quat(0.0, 0.0, yaw_true)
        incl = math.radians(40.0)
        m_world = np.array([math.cos(incl), 0.0, -math.sin(incl)])
        q_inv = q_true * np.array([1.0, -1.0, -1.0, -1.0])
        mag_body = quat_rotate(q_inv, m_world)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        for _ in range(8000):
            q = ahrs_update(q, np.zeros(3), GRAVITY, mag_body,
                            beta=0.1, dt=0.02)
        _, _, yaw = quat_to_euler(q)
        assert abs(yaw - yaw_true) < math.radians(0.5)


class TestPoseFromMeasurements:
    def test_level(self):
        roll, pitch, yaw = pose_from_measurements(GRAVITY, None, 0.3)
        assert roll == 0.0 and pitch == 0.0 and yaw == 0.3

    def test_tilt(self):
        accel = 9.81 * np.array([math.sin(0.2), 0.0, math.cos(0.2)])
        _, pitch, _ = pose_from_measurements(accel, None)
        assert abs(pitch - 0.2) < 1e-12


class TestEstimateOrientation:
    def test_zero_noise_yaw_rms(self, default_lap):
        scenario, truth, tag, _ = default_lap
        orient = estimate_orientation(tag, beta=0.1)
        tl = master_timeline(tag, 0.2)
        yaw5 = resample_linear(orient.t, orient.yaw, tl)
        err = np.degrees(yaw5 - truth.psi[:len(tl)])
        assert np.sqrt(np.mean(err ** 2)) < 0.5

    def test_yaw_unwrapped(self, preset_trials):
        _, _, tag, _ = preset_trials["TT03"]
        orient = estimate_orientation(tag, beta=0.1)
        # 8 laps of +/-pi turns plus station turn-arounds never jump.
        assert np.max(np.abs(np.diff(orient.yaw))) < 1.0

    def test_without_mag_uses_initial_heading(self, default_lap):
        _, truth, tag, _ = default_lap
        tag_nomag = replace(tag, mag=None)
        orient = estimate_orientation(tag_nomag, beta=0.05,
                                      initial_heading=0.0)
        tl = master_timeline(tag, 0.2)
        yaw5 = resample_linear(orient.t, orient.yaw, tl)
        err = np.degrees(yaw5 - truth.psi[:len(tl)])
        assert np.sqrt(np.mean(err ** 2)) < 3.0


def noisy_tag(preset, n_laps, seed, with_mag=True):
    _, tag = simulate(preset_scenario(preset, n_laps=n_laps, seed=seed,
                                      noise=NOISE))
    return tag if with_mag else replace(tag, mag=None)


def assert_matches_reference(tag):
    pitch, yaw, _ = reference_estimate_orientation(tag)
    out = estimate_orientation(tag)
    np.testing.assert_allclose(out.pitch, pitch, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out.yaw, yaw, rtol=0, atol=1e-12)


class TestMatchesReference:
    # Both loops run the same _ahrs_step on the same floats, so only the
    # Euler conversion differs: numpy's arcsin/arctan2 on a block against
    # math.asin/atan2 per sample, which may round the last bit apart.
    @pytest.mark.parametrize("preset,with_mag", [
        ("TT03", True), ("TT02", True), ("TT03", False)],
        ids=["TT03_noisy_mag", "TT02_noisy", "TT03_noisy_nomag"])
    def test_series(self, preset, with_mag):
        assert_matches_reference(
            noisy_tag(preset, 4, seed=11, with_mag=with_mag))

    def test_series_zero_noise(self, preset_trials):
        _, _, tag, _ = preset_trials["TT03"]
        assert_matches_reference(tag)

    def test_every_step_noiseless_trial(self, preset_trials):
        # Without noise the accelerometer reads exactly g while the tag is
        # level, the gravity gradient is of rounding size, and the
        # normalized correction step (beta * dt) takes its direction from
        # the last bits: over a whole run the scalar step and the numpy
        # form drift apart by about 1e-6 rad. Fed the reference state,
        # every single step agrees to rounding.
        _, _, tag, _ = preset_trials["TT03"]
        _, _, states = reference_estimate_orientation(
            tag, step=reference_ahrs_update)
        t = tag.t_imu
        for i in range(1, tag.n_imu):
            q_prev, dt = states[i - 1], float(t[i] - t[i - 1])
            ref = reference_ahrs_update(q_prev, tag.gyro[i], tag.accel[i],
                                        tag.mag[i], 0.1, dt)
            out = ahrs_update(q_prev, tag.gyro[i], tag.accel[i],
                              tag.mag[i], 0.1, dt)
            assert np.max(np.abs(out - ref)) < 1e-15, i


def test_orientation_memory_peak(trial_16lap, monkeypatch):
    # The loop converts one block of samples to Python floats at a time;
    # converting whole arrays at once peaks near 9x the input bytes. The
    # step keeps nothing, so a stand-in that returns the state measures
    # the same peak; tracing makes each float operation of the real step
    # so slow that this run would take about 20 s.
    monkeypatch.setattr(orientation, "_ahrs_step",
                        lambda w, x, y, z, *sample: (w, x, y, z))
    tag = trial_16lap
    imu_bytes = sum(a.nbytes for a in (tag.t_imu, tag.accel, tag.gyro,
                                       tag.mag))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        orientation.estimate_orientation(tag)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * imu_bytes, peak / imu_bytes
