import csv
import json
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

from swimlap import pipeline
from swimlap.cli import main
from swimlap.ingest import fmt, parse_tag_csv, read_numbers, read_table
from swimlap.localization import curvature_radius
from swimlap.params import AnimalParams, get_animal
from swimlap.pipeline import (
    RunConfig,
    _normalized_mean,
    analyze_trial,
    fit_summary,
)
from swimlap.segmentation import PCT_GRID, normalize_lap

LAGOON_ORIGIN = (21.27, -157.77)

# TT03's preset, written as a mapping of its fields.
TT03_FIELDS = {"mass": 142.6, "length": 2.2, "p_rmr": 317.6}

# Keys a config once set, each with a value it once took: the method's
# fixed constants (the master period ``dt`` among them), the lagoon
# boundary file (its first vertex is the origin) and the animal's fields
# (now the mapping form of ``animal``).
# A config that sets one is refused for the key alone.
REMOVED_KEYS = {
    "boundary": "lagoon.geojson", "params": TT03_FIELDS,
    "dt": 0.2, "use_mag": True, "beta": 0.1, "smooth_window_s": 1.0,
    "gamma_table": [[0.5, 2.5], [3.0, 1.0]], "v_min_cot": 0.05,
    "grid_n": 201, "segmentation.start_sustain_s": 1.0,
    "segmentation.end_sustain_s": 2.0, "segmentation.theta_osc": 0.0872664626,
    "segmentation.osc_window_s": 2.0, "segmentation.trans_sustain_s": 1.0,
    "segmentation.min_phase_s": 0.6, "segmentation.turn_level": 0.55}


def read(path: Path) -> str:
    return path.read_text()


def write_config(path: Path, sim_dir: Path, out: Path, key: str,
                 value) -> None:
    """A TT03 config of ``sim_dir``'s tag that also sets ``key`` to
    ``value``; ``segmentation.<name>`` sets a key of that block, and
    ``animal.<name>`` one of TT03's fields, written as a mapping."""
    cfg = {"inputs": [str(sim_dir / "tag.csv")], "output_dir": str(out),
           "animal": "TT03"}
    block, _, name = key.rpartition(".")
    if block == "animal":
        cfg["animal"] = dict(TT03_FIELDS)
    (cfg.setdefault(block, {}) if block else cfg)[name] = value
    path.write_text(yaml.safe_dump(cfg))


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

    @pytest.mark.parametrize("line, args, name", [
        ("preset: [TT03", [], "scn.yaml"),
        ("n_laps: 2.5", [], "n_laps"),
        ("n_laps: '3'", [], "n_laps"),
        ("seed: x", [], "seed"),
        ("", ["--seed", "-1"], "seed"),
        ("corner_speed: .nan", [], "corner_speed"),
        ("corner_radius: .inf", [], "corner_radius"),
        ("corner_buffer_s: -1", [], "corner_buffer_s"),
        ("straight_length: 5", [], "straight_length"),
        ("speed_jitter: 2.0", [], "speed_jitter"),
        ("fluke_amp: .nan", [], "fluke_amp"),
        ("depth_out: .nan", [], "depth_out"),
        ("noise: {accel: -1}", [], "noise.accel"),
        ("lead_in_s: -3", [], "lead_in_s"),
        ("station_pause_s: -1", [], "station_pause_s"),
        # The sample rates are module constants, the course starts at the
        # origin heading east and the fluke amplitude is set in radians
        # alone, so these are no longer settings.
        ("fluke_amp_deg: .nan", [],
         "unknown scenario keys: ['fluke_amp_deg']"),
        ("imu_rate: 100", [], "unknown scenario keys: ['imu_rate']"),
        ("slow_rate: 10", [], "unknown scenario keys: ['slow_rate']"),
        ("p0: [1, 2]", [], "unknown scenario keys: ['p0']"),
        ("heading0: 0.5", [], "unknown scenario keys: ['heading0']"),
        ("animal: TT99", [], "both 'preset' and 'animal'"),
        # A valid scenario, and an output path that is a plain file.
        ("", ["--output-dir", "{tmp}/scn.yaml"], "File exists")],
        ids=["malformed_yaml", "n_laps_float", "n_laps_string",
             "seed_string", "seed_flag_negative", "corner_speed_nan",
             "corner_radius_inf", "corner_buffer_negative",
             "straight_too_short", "speed_jitter_two", "fluke_amp_nan",
             "depth_out_nan", "noise_negative", "lead_in_negative",
             "station_pause_negative", "fluke_amp_deg_nan", "imu_rate",
             "slow_rate", "p0",
             "heading0", "preset_and_animal", "output_dir_is_file"])
    def test_bad_scenario_exit_2(self, tmp_path, capsys, line, args, name):
        # One line that names the setting or the path's fault, and no
        # output directory.
        (tmp_path / "scn.yaml").write_text(f"preset: TT03\n{line}\n")
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(tmp_path / "scn.yaml"),
                     "--output-dir", str(tmp_path / "o"),
                     *(a.format(tmp=tmp_path) for a in args)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        path_error = "--output-dir" in args
        assert err[0].startswith(
            "error: " if path_error else "error: invalid scenario: "), err
        assert name in err[0], err
        assert not (tmp_path / "o").exists()

    def test_unknown_animal_exit_2(self, tmp_path, capsys):
        # The reason as it is, not the quoted text of a KeyError.
        (tmp_path / "scn.yaml").write_text("animal: TT99\n")
        capsys.readouterr()
        assert main(["simulate", "--scenario", str(tmp_path / "scn.yaml"),
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid scenario: unknown animal 'TT99'; "
            "presets: ['TT01', 'TT02', 'TT03']"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scenario, args, line", [
        (None, ["--preset", "TT99"],
         "unknown preset 'TT99'; choose from ['TT01', 'TT02', 'TT03']"),
        ("preset: TT03\nnoise: {foo: 1, gyro: 0.01}\n", [],
         "unknown scenario keys: ['noise.foo']"),
    ], ids=["preset", "noise_key"])
    def test_unknown_name_exit_2(self, tmp_path, capsys, scenario, args,
                                 line):
        # The reason names the preset or key, without a KeyError's quotes.
        if scenario is not None:
            (tmp_path / "scn.yaml").write_text(scenario)
            args = ["--scenario", str(tmp_path / "scn.yaml")]
        capsys.readouterr()
        assert main(["simulate", *args,
                     "--output-dir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: invalid scenario: {line}"]
        assert not (tmp_path / "o").exists()

    def test_missing_scenario_exit_2(self, tmp_path):
        code = main(["simulate", "--scenario", str(tmp_path / "none.yaml"),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2


class TestAnalyzeCommand:
    def test_artifacts(self, run_dir):
        # Without an origin a trial holds these three files and no other.
        names = ["series.csv", "laps.csv", "fits.json"]
        assert sorted(p.name for p in (run_dir / "tag").iterdir()) == \
            sorted(names)
        manifest = json.loads(read(run_dir / "manifest.json"))
        assert manifest["trials"][0]["status"] == "ok"
        assert manifest["trials"][0]["n_laps"] == 4
        assert manifest["trials"][0]["artifacts"] == names

    def test_series_cells(self, sim_dir, run_dir):
        # Each column holds the printed values of the analysis in memory.
        result = analyze_trial(parse_tag_csv(sim_dir / "tag.csv"),
                               RunConfig(inputs=(), output_dir="o",
                                         animal=get_animal("TT03")))
        kin, track, power = result.kin, result.track, result.power
        want = {"t": kin.t, "x": track.x, "y": track.y,
                "R": curvature_radius(track, 0.2), "v": kin.v,
                "a_t": kin.a_t, "a_n": kin.a_n, "depth": kin.depth,
                "gamma": power.gamma, "F_drag": power.f_drag,
                "F_thrust": power.f_thrust, "P_thrust": power.p_thrust,
                "COT": power.cot}
        got = read_table(run_dir / "tag" / "series.csv")
        assert list(got) == list(want)
        for name, values in want.items():
            assert got[name] == [fmt(v) for v in values], name

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

    def test_endpoint_mismatch_recorded(self, tmp_path):
        # The dead-reckoned track of a closed-loop trial ends near the
        # station it started from.
        sim, out = tmp_path / "sim2", tmp_path / "run2"
        assert main(["simulate", "--preset", "TT03", "--laps", "2",
                     "--output-dir", str(sim)]) == 0
        assert main(["analyze", "--input", str(sim / "tag.csv"),
                     "--output-dir", str(out), "--animal", "TT03"]) == 0
        trial = json.loads(read(out / "manifest.json"))["trials"][0]
        assert 0.0 <= trial["dr_endpoint_mismatch_m"] < 0.5

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

    def test_epoch_time_stamps_fail(self, sim_dir, tmp_path, capsys):
        # Unix-epoch time stamps are beyond what the artifacts resolve:
        # the trial fails and says why, instead of writing coarse times.
        lines = read(sim_dir / "tag.csv").splitlines()
        shifted = tmp_path / "epoch.csv"
        shifted.write_text("\n".join(
            [lines[0]] + [f"{float(t) + 1.7e9:.3f},{rest}"
                          for t, rest in (r.split(",", 1) for r in lines[1:])]
        ) + "\n")
        out = tmp_path / "o"
        capsys.readouterr()
        code = main(["analyze", "--input", str(shifted),
                     "--output-dir", str(out), "--animal", "TT03"])
        assert code == 1
        trial = json.loads(read(out / "manifest.json"))["trials"][0]
        assert trial["status"] == "failed"
        assert "limit 1e6 * dt = 200000 s" in trial["error"]
        assert "limit 1e6 * dt" in capsys.readouterr().err

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code = main(["analyze", "--input", str(tmp_path / "ghost.csv"),
                     "--output-dir", str(tmp_path / "o"),
                     "--animal", "TT01"])
        assert code == 2
        assert "ghost.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["analyze", "--input", "{tmp}", "--animal", "TT01",
         "--output-dir", "{tmp}/o"],
        ["analyze", "--config", "{tmp}"],
        ["analyze", "--config", "{tmp}/malformed.yaml"],
        # Output paths that are plain files.
        ["analyze", "--input", "{tmp}/malformed.yaml", "--animal", "TT01",
         "--output-dir", "{tmp}/malformed.yaml"],
        ["report", "--run-dir", "{tmp}/run"]],
        ids=["input_directory", "config_directory", "malformed_config",
             "output_dir_is_file", "report_dir_is_file"])
    def test_unreadable_input_exit_2(self, tmp_path, capsys, args):
        # One line, and no output directory.
        (tmp_path / "malformed.yaml").write_text(
            f"inputs: [a.csv\noutput_dir: {tmp_path / 'o'}\n")
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "manifest.json").write_text(
            '{"trials": [{"trial": "tag", "status": "failed"}]}')
        (tmp_path / "run" / "report").write_text("")
        capsys.readouterr()
        assert main([a.format(tmp=tmp_path) for a in args]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: "), err
        assert not (tmp_path / "o").exists()

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
        ("station", None), ("station", [True, 0]), ("origin", ["21.2", "0"]),
        ("dt", 0), ("beta", -1), ("beta", float("nan")),
        ("smooth_window_s", 0), ("smooth_window_s", float("inf")),
        ("v_min_cot", -0.1), ("v_min_cot", float("nan")),
        ("initial_heading_deg", float("nan")), ("grid_n", 1),
        ("schema", ["t"]), ("schema", {"tt": "time_s"}), ("schema", {"t": 5}),
        ("segmentation.v_start", float("nan")), ("segmentation.v_start", -1),
        ("segmentation.a_thresh", float("nan")), ("jobs", 2.5),
        ("jobs", True), ("jobs", "2"), ("output_dir", ["o6"]),
        ("output_dir", ""), ("inputs", "sim/tag.csv"), ("inputs", [1]),
        ("origin", [91, 0]), ("origin", [-90, 0]),
        ("boundary", "lagoon.geojson"), ("params", TT03_FIELDS),
        ("dt", True), ("segmentation.v_start", True),
        ("animal.mass", float("nan")), ("animal.mass", float("inf")),
        ("animal.mass", True)],
        ids=["station_one_number", "origin_one_number", "station_nan",
             "station_null", "station_bool", "origin_strings",
             "dt_zero", "beta_negative", "beta_nan", "smooth_window_zero",
             "smooth_window_inf", "v_min_cot_negative", "v_min_cot_nan",
             "initial_heading_nan", "grid_n_one", "schema_list",
             "schema_unknown_column", "schema_not_string", "v_start_nan",
             "v_start_negative", "a_thresh_nan", "jobs_float", "jobs_bool",
             "jobs_string", "output_dir_list", "output_dir_empty",
             "inputs_string", "inputs_number", "origin_latitude_91",
             "origin_latitude_minus_90", "boundary", "params", "dt_bool",
             "v_start_bool", "animal_mass_nan", "animal_mass_inf",
             "animal_mass_bool"])
    def test_invalid_config_values_exit_2(self, sim_dir, tmp_path, capsys,
                                          monkeypatch, key, value):
        # A key that is no longer read is refused as unknown, whatever
        # its value; the others name the key and what it must be. Nothing
        # is written, also where a relative output_dir would land.
        write_config(tmp_path / "cfg.yaml", sim_dir, tmp_path / "o", key,
                     value)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["analyze", "--config", str(tmp_path / "cfg.yaml")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        reason = (f"unknown config keys: ['{key}']" if key in REMOVED_KEYS
                  else f"{key} must be")
        assert err[0].startswith(f"error: invalid config: {reason}"), err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_config_keys_exit_2(self, sim_dir, tmp_path, capsys, key):
        write_config(tmp_path / "cfg.yaml", sim_dir, tmp_path / "o", key,
                     REMOVED_KEYS[key])
        capsys.readouterr()
        assert main(["analyze", "--config", str(tmp_path / "cfg.yaml")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: invalid config: unknown config keys: "
                       f"['{key}']"], err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args, reason", [
        (["--animal", "TT99"],
         "unknown animal 'TT99'; presets: ['TT01', 'TT02', 'TT03']"),
        (["--config", "{tmp}/cfg.yaml"],
         "unknown config keys: ['animal.foo']")],
        ids=["unknown_preset", "unknown_animal_field"])
    def test_unknown_animal_exit_2(self, sim_dir, tmp_path, capsys, args,
                                   reason):
        # One unquoted line, as for any other config key.
        write_config(tmp_path / "cfg.yaml", sim_dir, tmp_path / "o",
                     "animal.foo", 1)
        capsys.readouterr()
        assert main(["analyze", "--input", str(sim_dir / "tag.csv"),
                     "--output-dir", str(tmp_path / "o"),
                     *(a.format(tmp=tmp_path) for a in args)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: invalid config: {reason}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, text, line", [
        ("analyze", "animal: TT03\nfoo: 1\n2: 3\n",
         "invalid config: unknown config keys: ['2', 'foo']"),
        ("analyze", "animal: TT03\nsegmentation: {foo: 1, 2: 3}\n",
         "invalid config: unknown config keys: "
         "['segmentation.2', 'segmentation.foo']"),
        ("analyze", "animal: {mass: 1, length: 2, p_rmr: 3, foo: 1, 2: 3}\n",
         "invalid config: unknown config keys: ['animal.2', 'animal.foo']"),
        ("simulate", "preset: TT03\nfoo: 1\n2: 3\n",
         "invalid scenario: unknown scenario keys: ['2', 'foo']"),
        ("simulate", "preset: TT03\nnoise: {foo: 1, 2: 3}\n",
         "invalid scenario: unknown scenario keys: ['noise.2', 'noise.foo']"),
    ], ids=["config", "segmentation", "animal", "scenario", "noise"])
    def test_number_keys_named_exit_2(self, sim_dir, tmp_path, capsys,
                                      monkeypatch, command, text, line):
        # A YAML key may be a number: each unknown key is named as text.
        monkeypatch.chdir(tmp_path)
        if command == "analyze":
            text = f"inputs: [{sim_dir / 'tag.csv'}]\noutput_dir: o\n" + text
            args = ["analyze", "--config", "f.yaml"]
        else:
            args = ["simulate", "--scenario", "f.yaml", "--output-dir", "o"]
        (tmp_path / "f.yaml").write_text(text)
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
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

    def test_jobs_trials_run_in_order_on_calling_thread(
            self, sim_dir, tmp_path, monkeypatch):
        calls = []

        def recording_parse(path, schema=None):
            calls.append((threading.get_ident(), Path(path).name))
            return parse_tag_csv(path, schema)

        monkeypatch.setattr(pipeline, "parse_tag_csv", recording_parse)
        inputs = []
        for name in ("c", "a", "b"):
            inputs += ["--input", str(tmp_path / f"{name}.csv")]
            shutil.copy(sim_dir / "tag.csv", tmp_path / f"{name}.csv")
        assert main(["analyze", *inputs, "--output-dir", str(tmp_path / "o"),
                     "--animal", "TT03", "--jobs", "2"]) == 0
        here = threading.get_ident()
        assert calls == [(here, "c.csv"), (here, "a.csv"), (here, "b.csv")]

    def test_geojson_with_origin(self, sim_dir, tmp_path):
        cfg = {"inputs": [str(sim_dir / "tag.csv")],
               "output_dir": str(tmp_path / "o"), "animal": "TT03",
               "origin": list(LAGOON_ORIGIN)}
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(cfg))
        assert main(["analyze", "--config", str(tmp_path / "cfg.yaml")]) == 0
        geo = json.loads(read(tmp_path / "o" / "tag" / "track.geojson"))
        assert geo["geometry"]["type"] == "LineString"
        # The track starts at the station, (0, 0): the origin itself.
        lon0, lat0 = geo["geometry"]["coordinates"][0]
        assert (lat0, lon0) == pytest.approx(LAGOON_ORIGIN, abs=1e-9)

    @pytest.mark.parametrize("station,expected", [
        (None, (0.0, 0.0)), ([5.0, 3.0], (5.0, 3.0))])
    def test_track_starts_at_station(self, sim_dir, tmp_path, station,
                                     expected):
        cfg = {"inputs": [str(sim_dir / "tag.csv")],
               "output_dir": str(tmp_path / "o"), "animal": "TT03"}
        if station is not None:
            cfg["station"] = station
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(cfg))
        assert main(["analyze", "--config", str(tmp_path / "cfg.yaml")]) == 0
        manifest = json.loads(read(tmp_path / "o" / "manifest.json"))
        assert manifest["config"]["station"] == list(expected)
        first = read(tmp_path / "o" / "tag" / "series.csv").splitlines()[1]
        x0, y0 = (float(c) for c in first.split(",")[1:3])
        assert (x0, y0) == expected

    @pytest.mark.parametrize("flag,mass", [
        ([], 244.7), (["--animal", "TT03"], get_animal("TT03").mass)])
    def test_animal_mapping_and_flag(self, sim_dir, tmp_path, flag, mass):
        # A config's animal may be a mapping of fields; the flag wins over it.
        cfg = {"inputs": [str(sim_dir / "tag.csv")],
               "output_dir": str(tmp_path / "o"),
               "animal": {"mass": 244.7, "length": 2.54, "p_rmr": 442.9}}
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(cfg))
        assert main(["analyze", "--config", str(tmp_path / "cfg.yaml"),
                     *flag]) == 0
        manifest = json.loads(read(tmp_path / "o" / "manifest.json"))
        assert manifest["config"]["animal"]["mass"] == mass


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

    def test_default_hash_pinned(self, tmp_path):
        # The hash basis is every field but jobs, the paths, the origin and
        # the column map: the animal, initial_heading_deg and the two
        # segmentation thresholds.
        raw = self.base(tmp_path)
        raw["animal"] = "TT03"
        assert RunConfig.from_dict(raw).config_hash() == (
            "ce0d94445a0114620b6d7baab6f36ec1b9ae67142465a07d4f728b3a793e8016")

    def test_manifest_records_schema(self, sim_dir, run_dir, tmp_path):
        lines = read(sim_dir / "tag.csv").splitlines(keepends=True)
        tag = tmp_path / "tag.csv"
        tag.write_text(lines[0].replace("t,", "time_s,", 1)
                       + "".join(lines[1:]))
        cfg = {"inputs": [str(tag)], "output_dir": str(tmp_path / "o"),
               "animal": "TT03", "schema": {"t": "time_s"}}
        (tmp_path / "cfg.yaml").write_text(yaml.safe_dump(cfg))
        assert main(["analyze", "--config", str(tmp_path / "cfg.yaml")]) == 0
        manifest = json.loads(read(tmp_path / "o" / "manifest.json"))
        default = json.loads(read(run_dir / "manifest.json"))
        assert manifest["config"]["schema"] == {"t": "time_s"}
        assert default["config"]["schema"] is None
        assert "jobs" not in manifest["config"]
        assert manifest["config_hash"] == default["config_hash"]
        assert read(tmp_path / "o" / "tag" / "laps.csv") == \
            read(run_dir / "tag" / "laps.csv")

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
                "cs_mean_speed_ms": v, "cs_mean_power_w": 20.0 * v ** 2.5,
                "trans_mean_speed_ms": np.nan,
                "trans_mean_power_w": np.nan,
            })
        params = AnimalParams(mass=150.0, length=2.0, p_rmr=300.0)
        fits = fit_summary(laps, params)
        assert fits["af"]["a1"] == pytest.approx(30.0, abs=1e-6)
        assert fits["af"]["a2"] == pytest.approx(2.3, abs=1e-6)
        assert fits["cs"]["a2"] == pytest.approx(2.5, abs=1e-6)
        # p / N = (a1 / N) * v**a2 = (a1 * L**a2 / N) * (v / L)**a2.
        for cls in ("af", "cs"):
            a1, a2 = fits[cls]["a1"], fits[cls]["a2"]
            assert fits[cls]["b2"] == pytest.approx(a2, abs=1e-9)
            assert fits[cls]["b1"] == pytest.approx(
                a1 * 2.0 ** a2 / params.norm_constant, rel=1e-9)
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

    def test_headers_pinned(self, run_dir):
        # Each quantity once, in SI units: no sums of other columns and no
        # ratios to an animal constant.
        main(["report", "--run-dir", str(run_dir)])
        classes = [f"{cls}_{stat}" for cls in ("af", "cs", "trans")
                   for stat in ("mean_speed_ms", "mean_power_w", "mean_cot")]
        laps = [
            "lap", "t_start", "t_corner", "t_end", "duration_s",
            "turn_start", "turn_end", "turn_duration_s", "path_length_m",
            "peak_speed_ms", "mean_speed_ms", "peak_power_w", "mean_power_w",
            "peak_omega_rads", "corner_radius_m", "thrust_work_j",
            "thrust_work_signed_j", "drag_work_j", "mean_cot", "transient_s",
            "consistent_s", "glide_s", "out_transient_s", "out_consistent_s",
            "ret_transient_s", "ret_consistent_s", "ret_glide_s",
            "work_transient_j", "work_consistent_j", "work_glide_j",
            "work_signed_transient_j", "work_signed_consistent_j",
            "work_signed_glide_j", *classes]
        assert len(laps) == 42
        header = read(run_dir / "tag" / "laps.csv").splitlines()[0]
        assert header.split(",") == laps
        header = read(run_dir / "report" / "power_speed.csv").splitlines()[0]
        assert header.split(",") == ["trial", "lap", "class", "mean_speed_ms",
                                     "mean_power_w", "mean_cot"]

    def test_missing_manifest_exit_2(self, tmp_path):
        assert main(["report", "--run-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("manifest", [
        "[]", "null", '{"trials": 5}', '{"trials": ["x"]}',
        '{"trials": [{"status": "ok"}]}',
        '{"trials": [{"trial": "../x", "status": "ok"}]}',
        '{"trials": [{"trial": "..", "status": "ok"}]}'],
        ids=["list", "null", "trials_number", "trials_strings",
             "trial_without_name", "trial_outside_run", "trial_parent"])
    def test_malformed_manifest_exit_1(self, tmp_path, capsys, manifest):
        (tmp_path / "manifest.json").write_text(manifest)
        capsys.readouterr()
        assert main(["report", "--run-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: incomplete run manifest: "), err
        assert not (tmp_path / "report").exists()

    def test_malformed_track_exit_1(self, run_dir, tmp_path, capsys):
        # The message names the file and the column it lacks.
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        track = run / "tag" / "series.csv"
        header, *rows = read(track).splitlines()
        i = header.split(",").index("x")
        track.write_text("".join(
            ",".join(cells[:i] + cells[i + 1:]) + "\n"
            for cells in (line.split(",") for line in [header, *rows])))
        capsys.readouterr()
        assert main(["report", "--run-dir", str(run)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {track}: missing column 'x'"]

    def test_run_without_series_exit_2(self, run_dir, tmp_path, capsys):
        # A run written before series.csv: one line naming the file.
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        (run / "tag" / "series.csv").unlink()
        capsys.readouterr()
        assert main(["report", "--run-dir", str(run)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(run / "tag" / "series.csv") in err[0]

    def test_aligned_tracks_hold_lap_windows(self, run_dir):
        # Each corner-aligned lap holds the lap's half-open sample window
        # [t_start, t_end), duration_s / dt samples.
        main(["report", "--run-dir", str(run_dir)])
        with (run_dir / "tag" / "laps.csv").open() as fh:
            laps = list(csv.DictReader(fh))
        with (run_dir / "report" / "corner_aligned_tracks.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for lap in laps:
            n = sum(1 for r in rows if r["lap"] == lap["lap"])
            assert n == round(float(lap["duration_s"]) / 0.2), lap["lap"]

    def test_work_partition_identity(self, run_dir):
        main(["report", "--run-dir", str(run_dir)])
        with (run_dir / "report" / "phase_work.csv").open() as fh:
            for row in csv.DictReader(fh):
                # Active fluking is the sum of the printed cells.
                assert row["work_af_j"] == fmt(
                    float(row["work_transient_j"])
                    + float(row["work_consistent_j"]))

    def test_single_lap_average_equals_lap(self, tmp_path):
        sim = tmp_path / "sim1"
        assert main(["simulate", "--preset", "TT01", "--laps", "1",
                     "--output-dir", str(sim)]) == 0
        out = tmp_path / "run1"
        assert main(["analyze", "--input", str(sim / "tag.csv"),
                     "--output-dir", str(out), "--animal", "TT01"]) == 0
        assert main(["report", "--run-dir", str(out)]) == 0
        series = read_numbers(out / "tag" / "series.csv", ("t", "v"))
        lap = {c: float(cells[0]) for c, cells in
               read_table(out / "tag" / "laps.csv").items()}
        window = ((series["t"] >= lap["t_start"])
                  & (series["t"] < lap["t_end"]))
        v = normalize_lap({"v": series["v"][window]}, series["t"][window],
                          lap["t_start"], lap["t_corner"], lap["t_end"])["v"]
        with (out / "report" / "tag_normalized_mean.csv").open() as fh:
            mean = list(csv.DictReader(fh))
        assert len(mean) == len(v) == 201
        for v_lap, row in zip(v, mean):
            assert row["v_mean"] == fmt(v_lap)
            assert float(row["v_std"]) == 0.0

    def test_identical_laps_zero_variance(self, tmp_path):
        # Grid-aligned scenario: every lap samples the same relative
        # instants, and its interpolated corner falls at the same lap time,
        # so per-percent variance of motion channels is zero.
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
        # Finer than the 9 digits of laps.csv resolve, so in-process.
        events = analyze_trial(parse_tag_csv(sim / "tag.csv"), RunConfig(
            inputs=("unused.csv",), output_dir="unused",
            animal=get_animal("TT01"))).events
        corner = [ev.t_c - ev.t_s for ev in events]
        assert len(corner) == 4
        assert max(corner) - min(corner) < 1e-7, corner
        with (out / "report" / "tag_normalized_mean.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 201
        for row in rows:
            for ch in ("v_std", "depth_std"):
                assert float(row[ch]) < 1e-6, (row["pct"], ch)


def reference_normalized_mean(norm):
    """The per-percentage rule: the finite samples of each percentage's
    rows, with numpy's mean and std, NaN where there are none."""
    pcts = sorted(set(norm["pct"]), key=float)
    table = {"pct": pcts}
    for c, cells in norm.items():
        if c in ("lap", "pct"):
            continue
        values = np.array(cells, dtype=float)
        for stat in ("mean", "std"):
            table[f"{c}_{stat}"] = []
        for pct in pcts:
            vals = values[[p == pct for p in norm["pct"]]]
            vals = vals[np.isfinite(vals)]
            table[f"{c}_mean"].append(vals.mean() if len(vals) else np.nan)
            table[f"{c}_std"].append(vals.std() if len(vals) else np.nan)
    return table


def long_table(laps):
    """Each channel's rows of lap values on ``PCT_GRID`` as one row per lap
    and percentage, with the grid's printed cells."""
    n_laps = len(next(iter(laps.values())))
    table = {"lap": np.repeat(np.arange(n_laps), len(PCT_GRID)),
             "pct": [fmt(p) for p in PCT_GRID] * n_laps}
    table.update({c: np.ravel(values) for c, values in laps.items()})
    return table


class TestNormalizedMean:
    @pytest.mark.parametrize("n_laps", [None, 64], ids=["run", "64_laps"])
    def test_all_finite_equals_reference(self, run_dir, monkeypatch, rng,
                                         n_laps):
        # On finite cells the masked sums are numpy's own mean and std, also
        # past 8 laps, where numpy sums in eight interleaved parts. The run
        # case takes the laps that the report normalizes.
        if n_laps:
            laps = {"v": rng.normal(3.0, 2.0, (n_laps, len(PCT_GRID)))}
        else:
            seen = []
            monkeypatch.setattr(pipeline, "_normalized_mean", lambda laps: (
                seen.append(laps) or _normalized_mean(laps)))
            assert main(["report", "--run-dir", str(run_dir)]) == 0
            [laps] = seen
            assert len(laps) == 8 and len(laps["v"]) == 4
        assert all(np.isfinite(values).all() for values in laps.values())
        got = _normalized_mean(laps)
        want = reference_normalized_mean(long_table(laps))
        assert list(got) == list(want)
        for c, cells in want.items():
            assert list(map(str, got[c])) == list(map(str, cells)), c

    def test_non_finite_cells(self, rng):
        # Eight laps; about a fifth of the cells nan, inf or -inf, and no
        # finite sample at 50 %.
        values = rng.normal(3.0, 2.0, size=(2, 8, len(PCT_GRID)))
        bad = rng.random(values.shape)
        values[bad < 0.1] = np.nan
        values[(0.1 <= bad) & (bad < 0.15)] = np.inf
        values[(0.15 <= bad) & (bad < 0.2)] = -np.inf
        half = len(PCT_GRID) // 2
        assert PCT_GRID[half] == 50.0
        values[:, :, half] = np.nan
        values[1, ::2, half] = np.inf
        laps = {"v": values[0], "cot": values[1]}
        got = _normalized_mean(laps)
        want = reference_normalized_mean(long_table(laps))
        assert got["pct"] == want["pct"] == [fmt(p) for p in PCT_GRID]
        keep = np.arange(len(PCT_GRID)) != half
        for c in ("v_mean", "v_std", "cot_mean", "cot_std"):
            got_c, want_c = np.asarray(got[c]), np.asarray(want[c])
            assert np.isnan(got_c[half]) and np.isnan(want_c[half]), c
            assert np.isfinite(want_c[keep]).all(), c
            np.testing.assert_allclose(got_c[keep], want_c[keep],
                                       rtol=1e-12, atol=0.0, err_msg=c)

    def test_non_finite_cells_read_back(self, run_dir, tmp_path):
        # A radius of inf is never read; a COT of nan is left out of every
        # average, which is then nan. Every other report cell stays as it
        # was.
        run = tmp_path / "run"
        shutil.copytree(run_dir, run)
        shutil.rmtree(run / "report", ignore_errors=True)
        assert main(["report", "--run-dir", str(run)]) == 0
        before = {p.name: read(p) for p in (run / "report").iterdir()}
        path = run / "tag" / "series.csv"
        header, *rows = read(path).splitlines()
        for column, cell in (("R", "inf"), ("COT", "nan")):
            i = header.split(",").index(column)
            rows = [",".join(cells[:i] + [cell] + cells[i + 1:])
                    for cells in (row.split(",") for row in rows)]
        path.write_text("\n".join([header, *rows]) + "\n")
        assert main(["report", "--run-dir", str(run)]) == 0
        after = {p.name: read(p) for p in (run / "report").iterdir()}
        assert after.keys() == before.keys()
        for name in after.keys() - {"tag_normalized_mean.csv"}:
            assert after[name] == before[name], name
        mean, want = (list(csv.DictReader(
            table["tag_normalized_mean.csv"].splitlines()))
            for table in (after, before))
        assert len(mean) == len(want) == 201
        for got_row, want_row in zip(mean, want):
            assert got_row["cot_mean"] == got_row["cot_std"] == "nan"
            for c in got_row.keys() - {"cot_mean", "cot_std"}:
                assert got_row[c] == want_row[c], c
