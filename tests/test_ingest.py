import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swimlap.ingest import (
    EARTH_RADIUS_M,
    IngestError,
    LagoonBoundary,
    MasterTimeline,
    latlon_to_local,
    local_to_latlon,
    master_timeline,
    moving_average,
    parse_tag_csv,
    read_table,
    resample_linear,
    write_table,
)

FULL_HEADER = "t,ax,ay,az,gx,gy,gz,mx,my,mz,depth,speed,temp"


def write_rows(path, rows, header=FULL_HEADER):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestParse:
    def test_three_row_file(self, tmp_path):
        rows = [f"{t},0,0,9.81,0,0,0,1,0,0,1.0,2.0,21" for t in (0.0, 0.2, 0.4)]
        tag = parse_tag_csv(write_rows(tmp_path / "a.csv", rows))
        assert tag.n_imu == 3
        assert tag.n_slow == 3
        assert tag.mag is not None

    def test_duplicate_timestamp_rejected(self, tmp_path):
        rows = [f"{t},0,0,9.81,0,0,0,1,0,0,1.0,2.0," for t in (0.0, 0.2, 0.2)]
        with pytest.raises(IngestError, match="non-monotone time"):
            parse_tag_csv(write_rows(tmp_path / "a.csv", rows))

    def test_missing_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("t,ax,ay\n0,0,0\n")
        with pytest.raises(IngestError, match="missing column"):
            parse_tag_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text(FULL_HEADER + "\n")
        with pytest.raises(IngestError, match="empty"):
            parse_tag_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_tag_csv(tmp_path / "nope.csv")

    @pytest.mark.parametrize("with_mag", [True, False],
                             ids=["mag", "no_mag"])
    def test_two_rates_preserved(self, tmp_path, with_mag):
        from dataclasses import replace

        from swimlap import LapScenario, get_animal, simulate
        from swimlap.simulator import write_tag_csv

        scenario = LapScenario(animal=get_animal("TT01"), n_laps=1)
        _, tag = simulate(scenario)
        if not with_mag:
            tag = replace(tag, mag=None)
        path = tmp_path / "sim.csv"
        write_tag_csv(tag, path)
        parsed = parse_tag_csv(path)
        assert parsed.n_imu == tag.n_imu
        assert parsed.n_slow == tag.n_slow
        assert np.allclose(np.diff(parsed.t_imu), 0.02, atol=1e-9)
        assert np.allclose(np.diff(parsed.t_slow), 0.2, atol=1e-9)
        # 9 significant digits recover every channel to a relative 5e-9.
        for name in ("t_imu", "accel", "gyro", "t_slow", "depth", "speed"):
            np.testing.assert_allclose(getattr(parsed, name),
                                       getattr(tag, name), rtol=1e-8,
                                       err_msg=name)
        if with_mag:
            np.testing.assert_allclose(parsed.mag, tag.mag, rtol=1e-8)
        else:
            assert parsed.mag is None
            cells = read_table(path)
            assert all(c == "" for n in ("mx", "my", "mz") for c in cells[n])

    def test_non_finite_rows_flagged(self, tmp_path):
        rows = ["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,",
                "0.2,0,0,nan,0,0,0,1,0,0,1.0,2.0,",
                "0.4,0,0,9.81,0,0,0,1,0,0,1.0,2.0,"]
        with pytest.warns(UserWarning, match="flagged"):
            tag = parse_tag_csv(write_rows(tmp_path / "a.csv", rows))
        assert tag.n_imu == 2
        assert tag.flagged_rows == [3]

    def test_temp_cells_never_parsed(self, tmp_path):
        # The temperature column is accepted but unused, so a garbled
        # cell there must not drop an otherwise valid row.
        rows = ["0.0,0,0,9.81,0,0,0,1,0,0,1.0,2.0,21",
                "0.2,0,0,9.81,0,0,0,1,0,0,1.0,2.0,n/a",
                "0.4,0,0,9.81,0,0,0,1,0,0,1.0,2.0,"]
        tag = parse_tag_csv(write_rows(tmp_path / "a.csv", rows))
        assert tag.n_imu == 3
        assert tag.n_slow == 3
        assert tag.flagged_rows == []

    def test_schema_mapping(self, tmp_path):
        header = "time,AX,ay,az,gx,gy,gz,mx,my,mz,depth,speed,temp"
        rows = [f"{t},0,0,9.81,0,0,0,1,0,0,1.0,2.0," for t in (0.0, 0.2)]
        path = write_rows(tmp_path / "a.csv", rows, header=header)
        tag = parse_tag_csv(path, schema={"t": "time", "ax": "AX"})
        assert tag.n_imu == 2

    def test_negative_speed_rejected(self, tmp_path):
        rows = ["0.0,0,0,9.81,0,0,0,1,0,0,1.0,-2.0,"]
        with pytest.raises(IngestError, match="speed"):
            parse_tag_csv(write_rows(tmp_path / "a.csv", rows))


class TestResample:
    def timeline(self, t0=0.0, dt=0.2, n=11):
        return MasterTimeline(t0=t0, dt=dt, n=n)

    def test_constant(self):
        t = np.arange(0, 3, 0.02)
        out = resample_linear(t, np.full_like(t, 5.0), self.timeline())
        assert np.allclose(out, 5.0, atol=0, rtol=0)

    def test_ramp_exact(self):
        t = np.arange(0, 3, 0.02)
        out = resample_linear(t, t.copy(), self.timeline())
        assert np.allclose(out, self.timeline().t, atol=1e-12)

    def test_sine_within_2e4(self):
        t = np.arange(0, 3, 0.02)
        tl = self.timeline(t0=0.01, n=10)
        out = resample_linear(t, np.sin(t), tl)
        assert np.max(np.abs(out - np.sin(tl.t))) < 2e-4

    def test_idempotent_on_grid(self):
        tl = self.timeline()
        values = np.sin(tl.t * 2.0)
        out = resample_linear(tl.t, values, tl)
        assert np.array_equal(out, values)

    def test_no_extrapolation(self):
        t = np.arange(0, 1.0, 0.02)
        with pytest.raises(IngestError, match="extends beyond"):
            resample_linear(t, t, self.timeline(n=20))


class TestMovingAverage:
    def test_constant_unchanged(self):
        out = moving_average(np.full(20, 3.3), 1.0, 0.2)
        assert np.allclose(out, 3.3, rtol=1e-12)

    def test_ramp_unchanged(self):
        x = np.arange(30) * 0.7
        out = moving_average(x, 1.0, 0.2)
        assert np.allclose(out, x, atol=1e-12)

    def test_impulse_spread(self):
        x = np.zeros(11)
        x[5] = 1.0
        out = moving_average(x, 1.0, 0.2)
        expected = np.zeros(11)
        expected[3:8] = 0.2
        assert np.allclose(out, expected, atol=1e-15)

    def test_even_window_forced_odd(self):
        x = np.zeros(11)
        x[5] = 1.0
        assert np.array_equal(moving_average(x, 0.8, 0.2),
                              moving_average(x, 1.0, 0.2))

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            moving_average(np.array([]), 1.0, 0.2)

    @given(st.floats(-50, 50))
    @settings(max_examples=25, deadline=None)
    def test_commutes_with_constant_shift(self, c):
        x = np.sin(np.arange(40) * 0.3)
        lhs = moving_average(x + c, 1.0, 0.2)
        rhs = moving_average(x, 1.0, 0.2) + c
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_periodic_mean_preserved(self):
        # 4 whole periods sampled on-grid; trim edge half-windows.
        t = np.arange(0, 8, 0.2)
        x = np.sin(2 * np.pi * t / 2.0)
        out = moving_average(x, 1.0, 0.2)
        assert abs(np.mean(out[5:-5]) - np.mean(x[5:-5])) < 1e-2


class TestProjection:
    def test_origin_maps_to_zero(self):
        x, y = latlon_to_local(21.27, -157.77, origin=(21.27, -157.77))
        assert x == 0.0 and y == 0.0

    def test_lat_step(self):
        x, y = latlon_to_local(10.0 + 1e-4, 20.0, origin=(10.0, 20.0))
        assert x == 0.0
        assert abs(y - EARTH_RADIUS_M * math.radians(1e-4)) < 1e-9
        assert abs(y - 11.12) < 0.01

    def test_lon_step_at_equator(self):
        x, y = latlon_to_local(0.0, 1e-4, origin=(0.0, 0.0))
        assert y == 0.0
        assert abs(x - 11.12) < 0.01

    @given(st.floats(-500, 500), st.floats(-500, 500),
           st.floats(-60, 60), st.floats(-179, 179))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_lagoon_scale(self, dx, dy, lat0, lon0):
        lat, lon = local_to_latlon(dx, dy, (lat0, lon0))
        x, y = latlon_to_local(lat, lon, (lat0, lon0))
        assert abs(x - dx) < 1e-6
        assert abs(y - dy) < 1e-6


class TestBoundary:
    def test_valid_polygon(self):
        b = LagoonBoundary(vertices=[(0, 0), (40, 0), (40, 20), (0, 20)],
                           origin=(21.0, -157.0))
        assert b.station == (0.0, 0.0)

    def test_self_intersection_rejected(self):
        with pytest.raises(ValueError, match="self-intersects"):
            LagoonBoundary(vertices=[(0, 0), (10, 10), (10, 0), (0, 10)],
                           origin=(21.0, -157.0))

    def test_too_few_vertices(self):
        with pytest.raises(ValueError, match=">= 3"):
            LagoonBoundary(vertices=[(0, 0), (1, 1)], origin=(0.0, 0.0))

    def test_geojson_roundtrip(self, tmp_path):
        import json

        origin = (21.27, -157.77)
        ring = []
        for dx, dy in [(0, 0), (40, 0), (40, 20), (0, 20), (0, 0)]:
            lat, lon = local_to_latlon(dx, dy, origin)
            ring.append([float(lon), float(lat)])
        path = tmp_path / "lagoon.geojson"
        path.write_text(json.dumps(
            {"type": "Feature",
             "geometry": {"type": "Polygon", "coordinates": [ring]}}))
        b = LagoonBoundary.from_geojson(path, origin)
        assert np.allclose(b.vertices,
                           [(0, 0), (40, 0), (40, 20), (0, 20)], atol=1e-6)


class TestTable:
    def test_write_table_bytes(self, tmp_path):
        # Integers and text pass through; every other number is written
        # with 9 significant digits, non-finite values included.
        path = tmp_path / "table.csv"
        write_table(path, {
            "lap": [0, 1, 2, 3, 4, 12345678901],
            "trial": ["TT01"] * 6,
            "value": np.array([math.nan, math.inf, -math.inf, -0.0, 1e-10,
                               123456789012.5])})
        assert path.read_bytes() == (b"lap,trial,value\r\n"
                                     b"0,TT01,nan\r\n"
                                     b"1,TT01,inf\r\n"
                                     b"2,TT01,-inf\r\n"
                                     b"3,TT01,-0\r\n"
                                     b"4,TT01,1e-10\r\n"
                                     b"12345678901,TT01,1.23456789e+11\r\n")
        assert read_table(path) == {
            "lap": ["0", "1", "2", "3", "4", "12345678901"],
            "trial": ["TT01"] * 6,
            "value": ["nan", "inf", "-inf", "-0", "1e-10", "1.23456789e+11"]}


class TestMasterTimeline:
    def test_from_simulated_tag(self, default_lap):
        _, _, tag, _ = default_lap
        tl = master_timeline(tag)
        assert tl.dt == 0.2
        assert tl.t0 == tag.t_slow[0]
        assert tl.t_end <= min(tag.t_slow[-1], tag.t_imu[-1]) + 1e-9

    def test_too_short(self):
        from swimlap.ingest import TagSeries

        tag = TagSeries(t_imu=np.array([0.0, 0.02]),
                        accel=np.zeros((2, 3)), gyro=np.zeros((2, 3)),
                        mag=None, t_slow=np.array([0.0]),
                        depth=np.zeros(1), speed=np.zeros(1))
        with pytest.raises(IngestError):
            master_timeline(tag)
