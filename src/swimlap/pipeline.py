"""End-to-end trial analysis, run configuration, and artifact emission.

A run processes one or more tag CSVs (trials) with a shared configuration.
Per-trial artifacts land in ``<output_dir>/<trial>/``; a run manifest
records inputs, the resolved configuration and its hash, and per-trial
status. Every table goes through :func:`swimlap.ingest.write_table`, so
all numeric output uses 9 significant digits with fixed row ordering and
identical runs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .energetics import PowerSeries, fit_power_law, thrust_power
from .ingest import (
    CSV_COLUMNS,
    MASTER_DT,
    TagSeries,
    fmt,
    master_timeline,
    parse_tag_csv,
    read_numbers,
    read_table,
    resample_linear,
    write_table,
)
from .kinematics import KinematicState, compute_kinematics
from .localization import (
    Track,
    align_at_corner,
    curvature_radius,
    dead_reckon,
    track_to_geojson,
)
from .orientation import estimate_orientation
from .params import AnimalParams, animal_from, check_numbers, unknown_keys
from .segmentation import (
    CLASS_STATS,
    PCT_GRID,
    PHASE_CLASSES,
    LapEvents,
    SegmentationConfig,
    classify_phases,
    detect_laps,
    lap_metrics,
    normalize_lap,
)

# The channels of a normalized lap: its series.csv column, then its name
# in the report's normalized-mean table.
NORMALIZED_CHANNELS = (("v", "v"), ("a_t", "a_t"), ("a_n", "a_n"),
                       ("depth", "depth"), ("P_thrust", "p_thrust"),
                       ("COT", "cot"), ("x", "x"), ("y", "y"))

# Per-lap columns of laps.csv that the report's phase-work table copies;
# after the three phases it adds their active-fluking part, work_af_j.
WORK_COLUMNS = ("work_transient_j", "work_consistent_j", "work_glide_j",
                "thrust_work_j", "thrust_work_signed_j", "drag_work_j")


@dataclass(frozen=True)
class RunConfig:
    """Resolved analysis configuration for one run.

    Only what a run may set lives here; the method's fixed constants are
    module constants next to the code that reads them.
    """

    inputs: tuple[str, ...]
    output_dir: str
    animal: AnimalParams
    origin: tuple[float, float] | None = None
    station: tuple[float, float] = (0.0, 0.0)
    jobs: int = 1
    schema: dict | None = None
    initial_heading_deg: float = 0.0
    segmentation: SegmentationConfig = SegmentationConfig()

    def __post_init__(self) -> None:
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise ValueError(f"output_dir must be a non-empty string, "
                             f"got {self.output_dir!r}")
        check_numbers(self, ("jobs",),
                      lambda v: isinstance(v, numbers.Integral) and v >= 1,
                      "an integer >= 1")
        check_numbers(self, ("initial_heading_deg",), math.isfinite,
                      "a finite number")
        # Without an origin no track.geojson is written; the station is
        # where every track starts.
        keys = ("station",) if self.origin is None else ("origin", "station")
        for key in keys:
            point = getattr(self, key)
            if not (isinstance(point, (list, tuple)) and len(point) == 2
                    and all(not isinstance(v, bool)
                            and isinstance(v, numbers.Real)
                            and math.isfinite(v) for v in point)):
                raise ValueError(
                    f"{key} must be two finite numbers, got {point!r}")
            object.__setattr__(self, key, tuple(map(float, point)))
        if self.origin is not None and not abs(self.origin[0]) < 90.0:
            raise ValueError(f"origin must be (latitude, longitude) with the "
                             f"latitude strictly between -90 and 90, "
                             f"got {self.origin!r}")
        if self.schema is not None and not (
                isinstance(self.schema, dict)
                and all(k in CSV_COLUMNS and isinstance(v, str) and v
                        for k, v in self.schema.items())):
            raise ValueError(
                f"schema must be a map from column names of "
                f"{list(CSV_COLUMNS)} to non-empty strings, got {self.schema!r}")

    @classmethod
    def from_dict(cls, raw: dict, overrides: dict | None = None) -> "RunConfig":
        data = dict(raw)
        data.update({k: v for k, v in (overrides or {}).items()
                     if v is not None})
        seg = data.pop("segmentation", None) or {}
        unknown = (unknown_keys(data, cls.__dataclass_fields__)
                   + unknown_keys(seg, SegmentationConfig.__dataclass_fields__,
                                  "segmentation."))
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        animal = animal_from(data.pop("animal", None))
        inputs = data.pop("inputs", ())
        if not (isinstance(inputs, (list, tuple))
                and all(isinstance(p, str) for p in inputs)):
            raise ValueError(
                f"inputs must be a list of strings, got {inputs!r}")
        if not inputs:
            raise ValueError("config lists no inputs")
        return cls(inputs=tuple(inputs), animal=animal,
                   segmentation=SegmentationConfig(**seg), **data)

    def config_dict(self) -> dict:
        """Every field but ``jobs``, as plain data: the manifest's config.

        ``jobs`` is left out: trials run one after another at any
        ``jobs``, and runs that differ only in it write the same manifest.
        """
        out = asdict(self)
        del out["jobs"]
        return out

    def config_hash(self) -> str:
        """Hash of the settings that a trial's numbers depend on.

        The basis is :meth:`config_dict` without the paths, the origin
        and the column map. The fixed constants are not in it; the tool
        version identifies them.
        """
        basis = {k: v for k, v in self.config_dict().items()
                 if k not in ("inputs", "output_dir", "origin", "schema")}
        blob = json.dumps(basis, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class TrialResult:
    """Everything computed for one trial."""

    kin: KinematicState
    track: Track
    power: PowerSeries
    events: list[LapEvents]
    labels: np.ndarray
    laps: list[dict] = field(default_factory=list)


def analyze_trial(tag: TagSeries, cfg: RunConfig) -> TrialResult:
    """Run the full estimation chain on one parsed tag series."""
    t = master_timeline(tag)
    orient = estimate_orientation(
        tag, initial_heading=math.radians(cfg.initial_heading_deg))
    kin = compute_kinematics(
        resample_linear(tag.t_slow, tag.speed, t),
        resample_linear(orient.t, orient.pitch, t),
        resample_linear(orient.t, orient.yaw, t),
        resample_linear(tag.t_slow, tag.depth, t),
        t, MASTER_DT)
    track = dead_reckon(kin, cfg.station)
    power = thrust_power(kin.t, kin.v, kin.a_t, kin.depth, cfg.animal)
    events = detect_laps(kin, cfg.segmentation)
    labels = classify_phases(kin, events, cfg.segmentation)
    laps = [{"lap": i, **lap_metrics(kin, power, ev, labels)}
            for i, ev in enumerate(events)]
    return TrialResult(kin=kin, track=track, power=power, events=events,
                       labels=labels, laps=laps)


def write_laps_csv(result: TrialResult, path: Path) -> None:
    keys = list(result.laps[0]) if result.laps else ["lap"]
    write_table(path, {k: [row[k] for row in result.laps] for k in keys})


def write_series_csv(result: TrialResult, path: Path) -> None:
    """Every 5 Hz channel of the trial, one row per sample."""
    kin, track, power = result.kin, result.track, result.power
    write_table(path, {
        "t": kin.t, "x": track.x, "y": track.y,
        "R": curvature_radius(track, kin.dt), "v": kin.v, "a_t": kin.a_t,
        "a_n": kin.a_n, "depth": kin.depth, "gamma": power.gamma,
        "F_drag": power.f_drag, "F_thrust": power.f_thrust,
        "P_thrust": power.p_thrust, "COT": power.cot})


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """``arrays`` end to end as one float column (empty for no arrays)."""
    return np.concatenate(arrays) if arrays else np.empty(0)


def fit_summary(laps: list[dict], params: AnimalParams) -> dict:
    """Power-law fits of per-lap phase-average power vs speed.

    One dimensional fit (W vs m/s) and one non-dimensional fit (power
    over ``params.norm_constant`` vs body lengths per second, speed over
    ``params.length``) per phase class, skipping classes with fewer than
    3 positive points.
    """
    out: dict = {}
    for cls in PHASE_CLASSES:
        v, p = (np.array([row[f"{cls}_{stat}"] for row in laps])
                for stat in ("mean_speed_ms", "mean_power_w"))
        v_bl, p_nd = v / params.length, p / params.norm_constant
        good = np.isfinite(v) & np.isfinite(p) & (v > 0) & (p > 0)
        entry: dict = {"n_points": int(np.count_nonzero(good))}
        if np.count_nonzero(good) >= 3:
            try:
                fit = fit_power_law(v[good], p[good])
                entry["a1"] = fit.coeff
                entry["a2"] = fit.exponent
                entry["rms_w"] = fit.rms
                fit_nd = fit_power_law(v_bl[good], p_nd[good])
                entry["b1"] = fit_nd.coeff
                entry["b2"] = fit_nd.exponent
                entry["rms_nd"] = fit_nd.rms
            except ValueError as exc:
                entry["error"] = str(exc)
        out[cls] = entry
    return out


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _run_one_trial(cfg: RunConfig, input_path: str) -> dict:
    trial_id = Path(input_path).stem
    trial_dir = Path(cfg.output_dir) / trial_id
    trial_dir.mkdir(parents=True, exist_ok=True)
    status: dict = {"trial": trial_id, "input": str(input_path)}
    try:
        tag = parse_tag_csv(input_path, cfg.schema)
        result = analyze_trial(tag, cfg)
        write_series_csv(result, trial_dir / "series.csv")
        artifacts = ["series.csv"]
        if cfg.origin is not None:
            track_to_geojson(result.track, trial_dir / "track.geojson",
                             cfg.origin)
            artifacts.append("track.geojson")
        write_laps_csv(result, trial_dir / "laps.csv")
        (trial_dir / "fits.json").write_text(
            json.dumps(fit_summary(result.laps, cfg.animal), sort_keys=True,
                       indent=2) + "\n")
        artifacts += ["laps.csv", "fits.json"]
        # Dead-reckoning drift: the track should end where it began.
        mismatch = math.dist(result.track.end_point, cfg.station)
        status.update({"status": "ok", "n_laps": len(result.laps),
                       "artifacts": artifacts,
                       "dr_endpoint_mismatch_m": float(fmt(mismatch))})
    except Exception as exc:  # noqa: BLE001 - per-trial isolation
        status.update({"status": "failed", "error": f"{type(exc).__name__}: {exc}",
                       "trace": traceback.format_exc(limit=5)})
    return status


def run_analyze(cfg: RunConfig) -> int:
    """Analyze every input trial; returns the process exit code."""
    missing = [p for p in cfg.inputs if not Path(p).is_file()]
    if missing:
        raise FileNotFoundError(f"input file not found: {missing[0]}")
    stems = [Path(p).stem for p in cfg.inputs]
    if len(set(stems)) != len(stems):
        raise ValueError("input files must have unique basenames")

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # One trial after another on this thread, whatever ``cfg.jobs`` says:
    # parsing and table writing hold the GIL, so trial threads gain nothing.
    trials = [_run_one_trial(cfg, p) for p in cfg.inputs]
    manifest = {
        "tool": f"swimlap {__version__}",
        "config": cfg.config_dict(),
        "config_hash": cfg.config_hash(),
        "inputs": [{"path": str(p), "sha256": _sha256(Path(p))}
                   for p in cfg.inputs],
        "trials": trials,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    return 0 if all(s["status"] == "ok" for s in trials) else 1


def _normalized_mean(laps: dict[str, list]) -> dict[str, list]:
    """Mean and std over the laps of each normalized channel.

    ``laps`` maps a channel to its values on ``PCT_GRID``, one row per
    lap; the table has one row per lap percentage. Non-finite samples
    are left out, and a percentage without any finite sample gets NaN.
    """
    table: dict[str, list] = {"pct": [fmt(p) for p in PCT_GRID]}
    for c, values in laps.items():
        # Percentages x laps, C-ordered: each row sums as numpy sums the
        # values of one percentage alone.
        x = np.reshape(values, (-1, len(PCT_GRID))).T.copy()
        ok = np.isfinite(x)
        n = ok.sum(axis=1)
        with np.errstate(invalid="ignore"):
            mean = np.where(ok, x, 0.0).sum(axis=1) / n
            dev = np.where(ok, x - mean[:, None], 0.0)
            table[f"{c}_mean"] = mean
            table[f"{c}_std"] = np.sqrt((dev * dev).sum(axis=1) / n)
    return table


def run_report(run_dir: str | Path) -> int:
    """Aggregate a completed run into report tables.

    Emits, under ``<run_dir>/report/``: per-trial normalized-lap averages,
    corner-aligned lap tracks, a phase-work partition table, and a
    power/COT versus speed table.
    """
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"run manifest not found: {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    trials = manifest.get("trials") if isinstance(manifest, dict) else None
    if not trials:
        raise ValueError("incomplete run manifest: no trials recorded")
    if not (isinstance(trials, list) and all(
            isinstance(s, dict) and isinstance(s.get("trial"), str)
            for s in trials)):
        raise ValueError("incomplete run manifest: 'trials' is not a list "
                         "of statuses that each name their trial")
    # A trial's name is its directory in the run: one plain path part.
    for status in trials:
        name = status["trial"]
        if name != Path(name).name or name in ("", ".", ".."):
            raise ValueError(f"incomplete run manifest: trial name {name!r} "
                             f"is not a directory name in the run")

    report_dir = run_dir / "report"
    report_dir.mkdir(exist_ok=True)

    work: dict[str, list] = {c: [] for c in (
        "trial", "lap", *WORK_COLUMNS[:3], "work_af_j", *WORK_COLUMNS[3:])}
    speed: dict[str, list] = {c: [] for c in ("trial", "lap", "class",
                                               *CLASS_STATS)}
    aligned: dict[str, list] = {c: [] for c in ("trial", "lap", "t", "x", "y")}
    for status in trials:
        if status.get("status") != "ok":
            continue
        trial = status["trial"]
        trial_dir = run_dir / trial
        laps = read_table(trial_dir / "laps.csv")
        lap_ids = laps["lap"]
        if not lap_ids:
            continue

        work["trial"] += [trial] * len(lap_ids)
        for c in ("lap", *WORK_COLUMNS):
            work[c] += laps[c]
        # Active fluking: transient plus consistent, from the printed cells.
        work["work_af_j"] += [fmt(float(a) + float(b)) for a, b in zip(
            laps["work_transient_j"], laps["work_consistent_j"])]
        for i, lap_id in enumerate(lap_ids):
            for cls in PHASE_CLASSES:
                speed["trial"].append(trial)
                speed["lap"].append(lap_id)
                speed["class"].append(cls)
                for stat in CLASS_STATS:
                    speed[stat].append(laps[f"{cls}_{stat}"][i])

        series = read_numbers(trial_dir / "series.csv",
                              ("t", *(c for c, _ in NORMALIZED_CHANNELS)))
        t = series["t"]
        tracks, corners, keep = [], [], []
        normalized: dict[str, list] = {n: [] for _, n in NORMALIZED_CHANNELS}
        for i, lap_id in enumerate(lap_ids):
            t_s, t_c, t_e = (float(laps[c][i])
                             for c in ("t_start", "t_corner", "t_end"))
            # The lap's half-open sample window, as in LapEvents.window.
            idx = np.flatnonzero((t >= t_s) & (t < t_e))
            if len(idx) < 3:
                continue
            tracks.append(Track(t=t[idx], x=series["x"][idx],
                                y=series["y"][idx]))
            corners.append(int(np.argmin(np.abs(t[idx] - t_c))))
            keep.append(lap_id)
            lap = normalize_lap({n: series[c][idx]
                                 for c, n in NORMALIZED_CHANNELS},
                                t[idx], t_s, t_c, t_e)
            for n, values in lap.items():
                normalized[n].append(values)
        write_table(report_dir / f"{trial}_normalized_mean.csv",
                    _normalized_mean(normalized))
        for lap_id, lap_track in zip(keep, align_at_corner(tracks, corners)):
            aligned["trial"] += [trial] * len(lap_track)
            aligned["lap"] += [lap_id] * len(lap_track)
            aligned["t"].append(lap_track.t)
            aligned["x"].append(lap_track.x)
            aligned["y"].append(lap_track.y)

    write_table(report_dir / "phase_work.csv", work)
    write_table(report_dir / "power_speed.csv", speed)
    write_table(report_dir / "corner_aligned_tracks.csv", {
        c: _joined(cells) if c in ("t", "x", "y") else cells
        for c, cells in aligned.items()})
    return 0
