import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from swimlap.cli import main
from swimlap.ingest import local_to_latlon, parse_tag_csv
from swimlap.pipeline import RunConfig, fit_summary

LAGOON_ORIGIN = (21.27, -157.77)


def read(path: Path) -> str:
    return path.read_text()


def write_lagoon(path: Path, corners) -> Path:
    """GeoJSON polygon through local (x, y) ``corners`` about LAGOON_ORIGIN."""
    ring = []
    for dx, dy in [*corners, corners[0]]:
        lat, lon = local_to_latlon(dx, dy, LAGOON_ORIGIN)
        ring.append([float(lon), float(lat)])
    path.write_text(json.dumps(
        {"type": "Feature",
         "geometry": {"type": "Polygon", "coordinates": [ring]}}))
    return path


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = main(["simulate", "--preset", "TT03", "--laps", "4",
                 "--output-dir", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["analyze", "--input", str(sim_dir / "tag.csv"),
                 "--output-dir", str(out), "--animal", "TT03"])
    assert code == 0
    return out


class TestSimulateCommand:
    def test_outputs_exist(self, sim_dir):
        assert (sim_dir / "tag.csv").exists()
        assert (sim_dir / "truth.csv").exists()
        assert (sim_dir / "truth_laps.csv").exists()

    def test_row_counts_match_rates(self, sim_dir):
        tag_rows = read(sim_dir / "tag.csv").strip().splitlines()
        truth_rows = read(sim_dir / "truth.csv").strip().splitlines()
        # 50 Hz and 5 Hz streams over one shared duration.
        n_imu = sum(1 for r in tag_rows[1:] if r.split(",")[1] != "")
        n_slow = sum(1 for r in tag_rows[1:] if r.split(",")[10] != "")
        assert abs(n_imu - 10 * n_slow) <= 10
        assert len(truth_rows) - 1 == n_slow

    def test_same_seed_identical_bytes(self, tmp_path):
        scn = {"preset": "TT01", "n_laps": 1, "seed": 5,
               "noise": {"accel": 0.03, "speed": 0.02}}
        (tmp_path / "scn.yaml").write_text(yaml.safe_dump(scn))
        for sub in ("one", "two"):
            code = main(["simulate", "--scenario", str(tmp_path / "scn.yaml"),
                         "--output-dir", str(tmp_path / sub)])
            assert code == 0
        assert (tmp_path / "one" / "tag.csv").read_bytes() == \
            (tmp_path / "two" / "tag.csv").read_bytes()

    def test_invalid_scenario_exit_2(self, tmp_path):
        (tmp_path / "bad.yaml").write_text(
            yaml.safe_dump({"preset": "TT01", "corner_speed": 9.0}))
        code = main(["simulate", "--scenario", str(tmp_path / "bad.yaml"),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2

    def test_missing_scenario_exit_2(self, tmp_path):
        code = main(["simulate", "--scenario", str(tmp_path / "none.yaml"),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2


class TestAnalyzeCommand:
    def test_artifacts(self, run_dir):
        trial = run_dir / "tag"
        for name in ("track.csv", "laps.csv", "energetics.csv",
                     "normalized.csv", "fits.json"):
            assert (trial / name).exists(), name
        manifest = json.loads(read(run_dir / "manifest.json"))
        assert manifest["trials"][0]["status"] == "ok"
        assert manifest["trials"][0]["n_laps"] == 4

    def test_lap_rows(self, run_dir):
        rows = read(run_dir / "tag" / "laps.csv").strip().splitlines()
        assert len(rows) == 5  # header + 4 laps

    def test_eight_lap_trial(self, tmp_path):
        sim = tmp_path / "sim8"
        assert main(["simulate", "--preset", "TT02",
                     "--output-dir", str(sim)]) == 0
        out = tmp_path / "run8"
        assert main(["analyze", "--input", str(sim / "tag.csv"),
                     "--output-dir", str(out), "--animal", "TT02"]) == 0
        rows = read(out / "tag" / "laps.csv").strip().splitlines()
        assert len(rows) == 9  # header + 8 laps

    def test_trial_without_laps(self, tmp_path):
        # A resting tag (zero speed throughout) analyzes cleanly to an
        # empty lap table.
        import numpy as np

        from swimlap.ingest import TagSeries
        from swimlap.simulator import write_tag_csv

        n_imu, n_slow = 3001, 301
        tag = TagSeries(
            t_imu=np.arange(n_imu) * 0.02,
            accel=np.tile([0.0, 0.0, 9.81], (n_imu, 1)),
            gyro=np.zeros((n_imu, 3)),
            mag=np.tile([0.77, 0.0, -0.64], (n_imu, 1)),
            t_slow=np.arange(n_slow) * 0.2,
            depth=np.full(n_slow, 0.5),
            speed=np.zeros(n_slow))
        path = tmp_path / "rest.csv"
        write_tag_csv(tag, path)
        out = tmp_path / "runrest"
        assert main(["analyze", "--input", str(path),
                     "--output-dir", str(out), "--animal", "TT01"]) == 0
        rows = read(out / "rest" / "laps.csv").strip().splitlines()
        assert len(rows) == 1  # header only
        assert main(["report", "--run-dir", str(out)]) == 0

    def test_file_cut_off_mid_row(self, sim_dir, tmp_path):
        # A tag file whose last row is cut off: that row is flagged with
        # its line number, and the trial keeps every lap.
        cut = tmp_path / "cut.csv"
        cut.write_bytes((sim_dir / "tag.csv").read_bytes()[:-40])
        n_lines = len(cut.read_text().splitlines())
        with pytest.warns(UserWarning, match="flagged 1 malformed"):
            assert parse_tag_csv(cut).flagged_rows == [n_lines]
            code = main(["analyze", "--input", str(cut), "--output-dir",
                         str(tmp_path / "run"), "--animal", "TT03"])
        assert code == 0
        manifest = json.loads(read(tmp_path / "run" / "manifest.json"))
        assert manifest["trials"][0]["status"] == "ok"
        assert manifest["trials"][0]["n_laps"] == 4

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code = main(["analyze", "--input", str(tmp_path / "ghost.csv"),
                     "--output-dir", str(tmp_path / "o"),
                     "--animal", "TT01"])
        assert code == 2
        assert "ghost.csv" in capsys.readouterr().err

    def test_config_without_animal_exit_2(self, tmp_path):
        (tmp_path / "t.csv").write_text("t\n")
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(
            {"inputs": [str(tmp_path / "t.csv")],
             "output_dir": str(tmp_path / "o")}))
        code = main(["analyze", "--config", str(tmp_path / "cfg.yaml")])
        assert code == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key,value", [
        ("station", [1]), ("origin", [21.2]), ("station", [float("nan"), 0]),
        ("dt", 0)],
        ids=["station_one_number", "origin_one_number", "station_nan",
             "dt_zero"])
    def test_invalid_config_values_exit_2(self, sim_dir, tmp_path, capsys,
                                          key, value):
        cfg = {"inputs": [str(sim_dir / "tag.csv")],
               "output_dir": str(tmp_path / "o"), "animal": "TT03",
               key: value}
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(cfg))
        capsys.readouterr()
        assert main(["analyze", "--config", str(tmp_path / "cfg.yaml")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: invalid config: {key} must be"), err
        assert not (tmp_path / "o").exists()

    def test_failing_trial_continues_exit_1(self, sim_dir, tmp_path, capsys):
        bad = tmp_path / "broken.csv"
        bad.write_text("t,ax,ay,az,gx,gy,gz,mx,my,mz,depth,speed,temp\n"
                       "0.0,0,0\n")
        out = tmp_path / "o"
        code = main(["analyze", "--input", str(bad),
                     "--input", str(sim_dir / "tag.csv"),
                     "--output-dir", str(out), "--animal", "TT03"])
        assert code == 1
        manifest = json.loads(read(out / "manifest.json"))
        by_trial = {s["trial"]: s for s in manifest["trials"]}
        assert by_trial["broken"]["status"] == "failed"
        assert by_trial["tag"]["status"] == "ok"
        assert (out / "tag" / "laps.csv").exists()

    def test_rerun_byte_identical(self, sim_dir, tmp_path):
        out = tmp_path / "rerun"
        args = ["analyze", "--input", str(sim_dir / "tag.csv"),
                "--output-dir", str(out), "--animal", "TT03"]
        assert main(args) == 0
        snapshot = {p.relative_to(out): p.read_bytes()
                    for p in out.rglob("*") if p.is_file()}
        assert main(args) == 0
        for rel, blob in snapshot.items():
            assert (out / rel).read_bytes() == blob, rel

    def test_jobs_parallel_same_result(self, sim_dir, tmp_path):
        import shutil

        second = tmp_path / "tag2.csv"
        shutil.copy(sim_dir / "tag.csv", second)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            code = main(["analyze", "--input", str(sim_dir / "tag.csv"),
                         "--input", str(second), "--output-dir", str(out),
                         "--animal", "TT03", "--jobs", jobs])
            assert code == 0
        for rel in ("tag/laps.csv", "tag2/laps.csv"):
            assert (serial / rel).read_bytes() == (parallel / rel).read_bytes()

    def test_geojson_with_boundary(self, sim_dir, tmp_path):
        boundary = write_lagoon(tmp_path / "lagoon.geojson",
                                [(0, 0), (45, 0), (45, 25), (0, 25)])
        cfg = {"inputs": [str(sim_dir / "tag.csv")],
               "output_dir": str(tmp_path / "o"),
               "animal": "TT03",
               "boundary": str(boundary),
               "origin": list(LAGOON_ORIGIN)}
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(cfg))
        assert main(["analyze", "--config", str(tmp_path / "cfg.yaml")]) == 0
        geo = json.loads(read(tmp_path / "o" / "tag" / "track.geojson"))
        assert geo["geometry"]["type"] == "LineString"
        lon0, lat0 = geo["geometry"]["coordinates"][0]
        assert abs(lat0 - LAGOON_ORIGIN[0]) < 0.01
        assert abs(lon0 - LAGOON_ORIGIN[1]) < 0.01

    @pytest.mark.parametrize("content", [
        {"type": "Polygon"}, [[-157.77, 21.27]],
        {"type": "Polygon", "coordinates": [[]]}],
        ids=["polygon_without_coordinates", "top_level_array", "empty_ring"])
    def test_malformed_boundary_exit_2(self, sim_dir, tmp_path, capsys,
                                       content):
        boundary = tmp_path / "lagoon.geojson"
        boundary.write_text(json.dumps(content))
        cfg = {"inputs": [str(sim_dir / "tag.csv")],
               "output_dir": str(tmp_path / "o"), "animal": "TT03",
               "boundary": str(boundary)}
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(cfg))
        capsys.readouterr()
        assert main(["analyze", "--config", str(tmp_path / "cfg.yaml")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err

    @pytest.mark.parametrize("station,expected", [
        (None, (5.0, 3.0)), ([0.0, 0.0], (0.0, 0.0))])
    def test_station_with_boundary(self, sim_dir, tmp_path, station,
                                   expected):
        # Without a station the track starts at the boundary's first
        # vertex; an explicit one, even (0, 0), is kept.
        boundary = write_lagoon(tmp_path / "lagoon.geojson",
                                [(5, 3), (45, 3), (45, 25), (5, 25)])
        cfg = {"inputs": [str(sim_dir / "tag.csv")],
               "output_dir": str(tmp_path / "o"), "animal": "TT03",
               "boundary": str(boundary), "origin": list(LAGOON_ORIGIN)}
        if station is not None:
            cfg["station"] = station
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(cfg))
        assert main(["analyze", "--config", str(tmp_path / "cfg.yaml")]) == 0
        manifest = json.loads(read(tmp_path / "o" / "manifest.json"))
        assert manifest["config"]["station"] == pytest.approx(expected,
                                                              abs=1e-6)
        first = read(tmp_path / "o" / "tag" / "track.csv").splitlines()[1]
        x0, y0 = (float(c) for c in first.split(",")[1:3])
        assert (x0, y0) == pytest.approx(expected, abs=1e-6)


class TestConfigHash:
    def base(self, tmp_path) -> dict:
        return {"inputs": ["a.csv"], "output_dir": str(tmp_path),
                "animal": "TT01"}

    def test_hash_stable(self, tmp_path):
        a = RunConfig.from_dict(self.base(tmp_path))
        b = RunConfig.from_dict(self.base(tmp_path))
        assert a.config_hash() == b.config_hash()

    def test_hash_ignores_paths(self, tmp_path):
        a = RunConfig.from_dict(self.base(tmp_path))
        other = self.base(tmp_path)
        other["inputs"] = ["b.csv"]
        other["output_dir"] = str(tmp_path / "elsewhere")
        b = RunConfig.from_dict(other)
        assert a.config_hash() == b.config_hash()

    def test_hash_tracks_thresholds(self, tmp_path):
        a = RunConfig.from_dict(self.base(tmp_path))
        raw = self.base(tmp_path)
        raw["segmentation"] = {"v_start": 0.6}
        b = RunConfig.from_dict(raw)
        assert a.config_hash() != b.config_hash()

    def test_unknown_key_rejected(self, tmp_path):
        raw = self.base(tmp_path)
        raw["mystery"] = 1
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict(raw)


class TestFits:
    def test_known_coefficients_fixture(self):
        # Lap rows whose phase-average points sit exactly on known laws.
        laps = []
        for v in np.linspace(1.0, 3.0, 6):
            laps.append({
                "af_mean_speed_ms": v, "af_mean_power_w": 30.0 * v ** 2.3,
                "af_mean_speed_bl": v / 2.0,
                "af_mean_power_nd": 0.0347 * (v / 2.0) ** 2.08,
                "cs_mean_speed_ms": v, "cs_mean_power_w": 20.0 * v ** 2.5,
                "cs_mean_speed_bl": v / 2.0,
                "cs_mean_power_nd": 0.0211 * (v / 2.0) ** 2.49,
                "trans_mean_speed_ms": np.nan,
                "trans_mean_power_w": np.nan,
                "trans_mean_speed_bl": np.nan,
                "trans_mean_power_nd": np.nan,
            })
        fits = fit_summary(laps)
        assert fits["af"]["a1"] == pytest.approx(30.0, abs=1e-6)
        assert fits["af"]["a2"] == pytest.approx(2.3, abs=1e-6)
        assert fits["af"]["b1"] == pytest.approx(0.0347, abs=1e-6)
        assert fits["af"]["b2"] == pytest.approx(2.08, abs=1e-6)
        assert fits["cs"]["a2"] == pytest.approx(2.5, abs=1e-6)
        assert fits["trans"] == {"n_points": 0}

    def test_fit_json_from_run(self, run_dir):
        fits = json.loads(read(run_dir / "tag" / "fits.json"))
        for cls in ("af", "cs", "trans"):
            assert fits[cls]["n_points"] == 4
        assert fits["af"]["a1"] > 0.0
        assert fits["af"]["a2"] > 0.0


class TestReportCommand:
    def test_report_outputs(self, run_dir):
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        rep = run_dir / "report"
        for name in ("tag_normalized_mean.csv", "phase_work.csv",
                     "power_speed.csv", "corner_aligned_tracks.csv"):
            assert (rep / name).exists(), name

    def test_missing_manifest_exit_2(self, tmp_path):
        assert main(["report", "--run-dir", str(tmp_path)]) == 2

    def test_aligned_tracks_hold_lap_windows(self, run_dir):
        # Each corner-aligned lap holds the lap's half-open sample window
        # [t_start, t_end), duration_s / dt samples.
        main(["report", "--run-dir", str(run_dir)])
        import csv

        with (run_dir / "tag" / "laps.csv").open() as fh:
            laps = list(csv.DictReader(fh))
        with (run_dir / "report" / "corner_aligned_tracks.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for lap in laps:
            n = sum(1 for r in rows if r["lap"] == lap["lap"])
            assert n == round(float(lap["duration_s"]) / 0.2), lap["lap"]

    def test_work_partition_identity(self, run_dir):
        main(["report", "--run-dir", str(run_dir)])
        import csv

        with (run_dir / "report" / "phase_work.csv").open() as fh:
            for row in csv.DictReader(fh):
                af = float(row["work_af_j"])
                t = float(row["work_transient_j"])
                c = float(row["work_consistent_j"])
                # CSV carries 9 significant digits.
                assert af == pytest.approx(t + c, rel=1e-8)

    def test_single_lap_average_equals_lap(self, tmp_path):
        sim = tmp_path / "sim1"
        assert main(["simulate", "--preset", "TT01", "--laps", "1",
                     "--output-dir", str(sim)]) == 0
        out = tmp_path / "run1"
        assert main(["analyze", "--input", str(sim / "tag.csv"),
                     "--output-dir", str(out), "--animal", "TT01"]) == 0
        assert main(["report", "--run-dir", str(out)]) == 0
        import csv

        with (out / "tag" / "normalized.csv").open() as fh:
            norm = list(csv.DictReader(fh))
        with (out / "report" / "tag_normalized_mean.csv").open() as fh:
            mean = list(csv.DictReader(fh))
        assert len(mean) == len(norm)
        for r_norm, r_mean in zip(norm, mean):
            assert float(r_mean["v_mean"]) == pytest.approx(
                float(r_norm["v"]), rel=1e-9)
            assert float(r_mean["v_std"]) == 0.0

    def test_identical_laps_zero_variance(self, tmp_path):
        # Grid-aligned scenario: every lap samples the same relative
        # instants, so per-percent variance of motion channels is zero.
        scn = {"animal": "TT01", "cruise_speed": 4.0, "corner_speed": 2.5,
               "accel": 0.75, "glide_decel": 0.75,
               "corner_radius": 5.0 / np.pi, "straight_length": 30.15,
               "n_laps": 4}
        (tmp_path / "scn.yaml").write_text(yaml.safe_dump(scn))
        sim = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(tmp_path / "scn.yaml"),
                     "--output-dir", str(sim)]) == 0
        out = tmp_path / "run"
        assert main(["analyze", "--input", str(sim / "tag.csv"),
                     "--output-dir", str(out), "--animal", "TT01"]) == 0
        assert main(["report", "--run-dir", str(out)]) == 0
        import csv

        with (out / "report" / "tag_normalized_mean.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 201
        for row in rows:
            for ch in ("v_std", "depth_std", "p_thrust_std"):
                assert float(row[ch]) < 1e-6, (row["pct"], ch)
