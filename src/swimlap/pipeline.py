"""End-to-end trial analysis, run configuration, and artifact emission.

A run processes one or more tag CSVs (trials) with a shared configuration.
Per-trial artifacts land in ``<output_dir>/<trial>/``; a run manifest
records inputs, the resolved configuration and its hash, and per-trial
status. All numeric output uses 9 significant digits with fixed row
ordering so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .energetics import (
    DEFAULT_GAMMA_TABLE,
    V_MIN_COT,
    PowerSeries,
    fit_power_law,
    thrust_power,
)
from .ingest import (
    LagoonBoundary,
    TagSeries,
    master_timeline,
    parse_tag_csv,
    resample_linear,
)
from .kinematics import SMOOTH_WINDOW_S, KinematicState, compute_kinematics
from .localization import (
    Track,
    align_at_corner,
    curvature_radius,
    dead_reckon,
    track_to_csv,
    track_to_geojson,
)
from .orientation import estimate_orientation
from .params import AnimalParams, get_animal
from .segmentation import (
    LapEvents,
    SegmentationConfig,
    classify_phases,
    corner_circle_fits,
    detect_laps,
    lap_metrics,
    normalize_lap,
)

EMIT_CHOICES = ("tracks", "laps", "energetics", "normalized", "fits")

NORMALIZED_CHANNELS = ("v", "a_t", "a_n", "depth", "p_thrust", "cot", "x", "y")

FIT_CLASSES = ("af", "cs", "trans")


def _fmt(value: float) -> str:
    return f"{float(value):.9g}"


@dataclass(frozen=True)
class RunConfig:
    """Resolved analysis configuration for one run."""

    inputs: tuple[str, ...]
    output_dir: str
    animal: AnimalParams
    boundary: str | None = None
    origin: tuple[float, float] | None = None
    # None: the boundary's station, or (0, 0) without a boundary.
    station: tuple[float, float] | None = None
    emit: tuple[str, ...] = EMIT_CHOICES
    jobs: int = 1
    schema: dict | None = None
    dt: float = 0.2
    beta: float = 0.1
    use_mag: bool = True
    initial_heading_deg: float = 0.0
    smooth_window_s: float = SMOOTH_WINDOW_S
    gamma_table: tuple = DEFAULT_GAMMA_TABLE
    v_min_cot: float = V_MIN_COT
    grid_n: int = 201
    segmentation: SegmentationConfig = SegmentationConfig()

    def __post_init__(self) -> None:
        for name in self.emit:
            if name not in EMIT_CHOICES:
                raise ValueError(f"unknown emit flag {name!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.station is None and self.boundary is None:
            object.__setattr__(self, "station", (0.0, 0.0))

    @classmethod
    def from_dict(cls, raw: dict, overrides: dict | None = None) -> "RunConfig":
        data = dict(raw)
        data.update({k: v for k, v in (overrides or {}).items()
                     if v is not None})
        animal = data.pop("animal", None)
        params = data.pop("params", None)
        if isinstance(params, dict):
            animal_params = AnimalParams(**params)
        elif isinstance(animal, str):
            animal_params = get_animal(animal)
        else:
            raise ValueError("config needs 'animal' preset or 'params' block")
        seg = SegmentationConfig(**data.pop("segmentation", {}) or {})
        gamma = data.pop("gamma_table", DEFAULT_GAMMA_TABLE)
        gamma = tuple(tuple(float(v) for v in row) for row in gamma)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        inputs = tuple(str(p) for p in data.pop("inputs", ()))
        if not inputs:
            raise ValueError("config lists no inputs")
        for key in ("origin", "station"):
            if key in data and data[key] is not None:
                data[key] = tuple(float(v) for v in data[key])
        if "emit" in data:
            data["emit"] = tuple(data["emit"])
        return cls(inputs=inputs, animal=animal_params, segmentation=seg,
                   gamma_table=gamma, **data)

    @classmethod
    def from_yaml(cls, path: str | Path,
                  overrides: dict | None = None) -> "RunConfig":
        raw = yaml.safe_load(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path} is not a mapping")
        return cls.from_dict(raw, overrides)

    def constants_dict(self) -> dict:
        """Thresholds and model constants only (no paths): the hash basis."""
        return {
            "animal": asdict(self.animal),
            "dt": self.dt,
            "beta": self.beta,
            "use_mag": self.use_mag,
            "initial_heading_deg": self.initial_heading_deg,
            "smooth_window_s": self.smooth_window_s,
            "gamma_table": [list(r) for r in self.gamma_table],
            "v_min_cot": self.v_min_cot,
            "grid_n": self.grid_n,
            "station": list(self.station),
            "segmentation": asdict(self.segmentation),
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.constants_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class TrialResult:
    """Everything computed for one trial."""

    trial_id: str
    kin: KinematicState
    track: Track
    power: PowerSeries
    events: list[LapEvents]
    labels: np.ndarray
    laps: list[dict] = field(default_factory=list)


def analyze_trial(tag: TagSeries, cfg: RunConfig,
                  trial_id: str = "trial") -> TrialResult:
    """Run the full estimation chain on one parsed tag series."""
    timeline = master_timeline(tag, cfg.dt)
    orient = estimate_orientation(
        tag, beta=cfg.beta, use_mag=cfg.use_mag,
        initial_heading=math.radians(cfg.initial_heading_deg))
    kin = compute_kinematics(
        resample_linear(tag.t_slow, tag.speed, timeline),
        resample_linear(orient.t, orient.pitch, timeline),
        resample_linear(orient.t, orient.yaw, timeline),
        resample_linear(tag.t_slow, tag.depth, timeline),
        cfg.animal, timeline, smooth_window_s=cfg.smooth_window_s)
    track = dead_reckon(kin, cfg.station)
    track.radius = curvature_radius(track, timeline.dt)
    power = thrust_power(kin.t, kin.v, kin.a_t, kin.depth, cfg.animal,
                         gamma_table=cfg.gamma_table, v_min_cot=cfg.v_min_cot)
    events = detect_laps(kin, cfg.segmentation)
    labels = classify_phases(kin, events, cfg.segmentation)
    laps = [lap_metrics(kin, power, track, ev, labels, cfg.animal)
            for ev in events]
    for i, (row, ev) in enumerate(zip(laps, events)):
        row["lap"] = i
        circles = corner_circle_fits(track, kin.t, ev)
        for frac, fit in circles.items():
            key = f"circle_radius_{int(frac)}pct"
            row[key] = fit.radius if fit is not None else float("nan")
    return TrialResult(trial_id=trial_id, kin=kin, track=track, power=power,
                       events=events, labels=labels, laps=laps)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_laps_csv(result: TrialResult, path: Path) -> None:
    if not result.laps:
        _write_csv(path, ["lap"], [])
        return
    keys = ["lap"] + [k for k in result.laps[0] if k != "lap"]
    rows = [[row["lap"]] + [_fmt(row[k]) for k in keys[1:]]
            for row in result.laps]
    _write_csv(path, keys, rows)


def write_energetics_csv(result: TrialResult, path: Path) -> None:
    kin, power = result.kin, result.power
    header = ["t", "v", "a_t", "depth", "gamma", "F_drag", "F_thrust",
              "P_thrust", "P_t_nd", "COT"]
    rows = [[_fmt(kin.t[i]), _fmt(kin.v[i]), _fmt(kin.a_t[i]),
             _fmt(kin.depth[i]), _fmt(power.gamma[i]), _fmt(power.f_drag[i]),
             _fmt(power.f_thrust[i]), _fmt(power.p_thrust[i]),
             _fmt(power.p_thrust_nd[i]), _fmt(power.cot[i])]
            for i in range(len(kin))]
    _write_csv(path, header, rows)


def write_normalized_csv(result: TrialResult, path: Path, grid_n: int) -> None:
    header = ["lap", "pct"] + list(NORMALIZED_CHANNELS)
    rows = []
    channels = {
        "v": result.kin.v, "a_t": result.kin.a_t, "a_n": result.kin.a_n,
        "depth": result.kin.depth, "p_thrust": result.power.p_thrust,
        "cot": result.power.cot, "x": result.track.x, "y": result.track.y,
    }
    for row in result.laps:
        ev = result.events[row["lap"]]
        norm = normalize_lap(channels, result.kin.t, ev, grid_n)
        for j in range(len(norm.pct)):
            rows.append([row["lap"], _fmt(norm.pct[j])]
                        + [_fmt(norm.channels[c][j]) for c in NORMALIZED_CHANNELS])
    _write_csv(path, header, rows)


def fit_summary(laps: list[dict]) -> dict:
    """Power-law fits of per-lap phase-average power vs speed.

    One dimensional fit (W vs m/s) and one non-dimensional fit (power over
    the normalization constant vs body lengths per second) per phase
    class, skipping classes with fewer than 3 positive points.
    """
    out: dict = {}
    for cls in FIT_CLASSES:
        v = np.array([row[f"{cls}_mean_speed_ms"] for row in laps])
        p = np.array([row[f"{cls}_mean_power_w"] for row in laps])
        v_bl = np.array([row[f"{cls}_mean_speed_bl"] for row in laps])
        p_nd = np.array([row[f"{cls}_mean_power_nd"] for row in laps])
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


def _run_one_trial(cfg: RunConfig, input_path: str) -> tuple[str, dict]:
    trial_id = Path(input_path).stem
    trial_dir = Path(cfg.output_dir) / trial_id
    trial_dir.mkdir(parents=True, exist_ok=True)
    status: dict = {"trial": trial_id, "input": str(input_path)}
    try:
        tag = parse_tag_csv(input_path, cfg.schema)
        result = analyze_trial(tag, cfg, trial_id)
        artifacts = []
        if "tracks" in cfg.emit:
            track_to_csv(result.track, trial_dir / "track.csv")
            artifacts.append("track.csv")
            if cfg.origin is not None:
                track_to_geojson(result.track, trial_dir / "track.geojson",
                                 cfg.origin)
                artifacts.append("track.geojson")
        if "laps" in cfg.emit:
            write_laps_csv(result, trial_dir / "laps.csv")
            artifacts.append("laps.csv")
        if "energetics" in cfg.emit:
            write_energetics_csv(result, trial_dir / "energetics.csv")
            artifacts.append("energetics.csv")
        if "normalized" in cfg.emit:
            write_normalized_csv(result, trial_dir / "normalized.csv",
                                 cfg.grid_n)
            artifacts.append("normalized.csv")
        if "fits" in cfg.emit:
            (trial_dir / "fits.json").write_text(
                json.dumps(fit_summary(result.laps), sort_keys=True,
                           indent=2) + "\n")
            artifacts.append("fits.json")
        status.update({"status": "ok", "n_laps": len(result.laps),
                       "artifacts": artifacts})
    except Exception as exc:  # noqa: BLE001 - per-trial isolation
        status.update({"status": "failed", "error": f"{type(exc).__name__}: {exc}",
                       "trace": traceback.format_exc(limit=5)})
    return trial_id, status


def run_analyze(cfg: RunConfig) -> int:
    """Analyze every input trial; returns the process exit code."""
    missing = [p for p in cfg.inputs if not Path(p).exists()]
    if missing:
        raise FileNotFoundError(f"input file not found: {missing[0]}")
    if cfg.boundary is not None and not Path(cfg.boundary).exists():
        raise FileNotFoundError(f"boundary file not found: {cfg.boundary}")
    stems = [Path(p).stem for p in cfg.inputs]
    if len(set(stems)) != len(stems):
        raise ValueError("input files must have unique basenames")

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cfg_use = cfg
    if cfg.boundary is not None:
        boundary = LagoonBoundary.from_geojson(cfg.boundary, cfg.origin)
        updates: dict = {}
        if cfg.origin is None:
            updates["origin"] = boundary.origin
        if cfg.station is None:
            updates["station"] = boundary.station
        if updates:
            cfg_use = replace(cfg, **updates)

    if cfg.jobs > 1 and len(cfg.inputs) > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            statuses = dict(pool.map(
                lambda p: _run_one_trial(cfg_use, p), cfg.inputs))
    else:
        statuses = dict(_run_one_trial(cfg_use, p) for p in cfg.inputs)

    manifest = {
        "tool": f"swimlap {__version__}",
        "config": {**cfg_use.constants_dict(),
                   "inputs": list(cfg_use.inputs),
                   "output_dir": str(cfg_use.output_dir),
                   "boundary": cfg_use.boundary,
                   "origin": list(cfg_use.origin) if cfg_use.origin else None,
                   "emit": list(cfg_use.emit)},
        "config_hash": cfg_use.config_hash(),
        "inputs": [{"path": str(p), "sha256": _sha256(Path(p))}
                   for p in cfg_use.inputs],
        "trials": [statuses[Path(p).stem] for p in cfg_use.inputs],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    failed = [s for s in manifest["trials"] if s["status"] != "ok"]
    return 1 if failed else 0


def _read_csv_dict(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


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
    trials = [s for s in manifest.get("trials", [])]
    if not trials:
        raise ValueError("incomplete run manifest: no trials recorded")

    report_dir = run_dir / "report"
    report_dir.mkdir(exist_ok=True)

    work_rows = []
    speed_rows = []
    aligned_rows = []
    for status in trials:
        if status.get("status") != "ok":
            continue
        trial = status["trial"]
        trial_dir = run_dir / trial
        laps = _read_csv_dict(trial_dir / "laps.csv")

        norm_path = trial_dir / "normalized.csv"
        if norm_path.exists() and laps:
            rows = _read_csv_dict(norm_path)
            channels = [c for c in rows[0] if c not in ("lap", "pct")]
            by_pct: dict[str, list[dict]] = {}
            for r in rows:
                by_pct.setdefault(r["pct"], []).append(r)
            out = []
            for pct in sorted(by_pct, key=float):
                rec = [pct]
                for c in channels:
                    vals = np.array([float(r[c]) for r in by_pct[pct]])
                    vals = vals[np.isfinite(vals)]
                    rec.append(_fmt(vals.mean()) if len(vals) else "nan")
                    rec.append(_fmt(vals.std()) if len(vals) else "nan")
                out.append(rec)
            header = ["pct"]
            for c in channels:
                header += [f"{c}_mean", f"{c}_std"]
            _write_csv(report_dir / f"{trial}_normalized_mean.csv", header, out)

        for lap in laps:
            work_rows.append([
                trial, lap["lap"], lap["work_transient_j"],
                lap["work_consistent_j"], lap["work_glide_j"],
                lap["work_af_j"], lap["thrust_work_j"],
                lap["thrust_work_signed_j"], lap["drag_work_j"]])
            for cls in FIT_CLASSES:
                speed_rows.append([
                    trial, lap["lap"], cls,
                    lap[f"{cls}_mean_speed_ms"], lap[f"{cls}_mean_speed_bl"],
                    lap[f"{cls}_mean_power_w"], lap[f"{cls}_mean_power_nd"],
                    lap[f"{cls}_mean_cot"]])

        track_path = trial_dir / "track.csv"
        if track_path.exists() and laps:
            track_rows = _read_csv_dict(track_path)
            t = np.array([float(r["t"]) for r in track_rows])
            x = np.array([float(r["x"]) for r in track_rows])
            y = np.array([float(r["y"]) for r in track_rows])
            tracks, corners, keep = [], [], []
            for lap in laps:
                # The lap's half-open sample window, as in LapEvents.window.
                idx = np.flatnonzero((t >= float(lap["t_start"]))
                                     & (t < float(lap["t_end"])))
                if len(idx) < 3:
                    continue
                ci = int(np.argmin(np.abs(t[idx] - float(lap["t_corner"]))))
                tracks.append(Track(t=t[idx], x=x[idx], y=y[idx]))
                corners.append(ci)
                keep.append(lap["lap"])
            for lap_id, aligned in zip(keep, align_at_corner(tracks, corners)):
                for j in range(len(aligned)):
                    aligned_rows.append([trial, lap_id, _fmt(aligned.t[j]),
                                         _fmt(aligned.x[j]), _fmt(aligned.y[j])])

    _write_csv(report_dir / "phase_work.csv",
               ["trial", "lap", "work_transient_j", "work_consistent_j",
                "work_glide_j", "work_af_j", "thrust_work_j",
                "thrust_work_signed_j", "drag_work_j"], work_rows)
    _write_csv(report_dir / "power_speed.csv",
               ["trial", "lap", "class", "mean_speed_ms", "mean_speed_bl",
                "mean_power_w", "mean_power_nd", "mean_cot"], speed_rows)
    _write_csv(report_dir / "corner_aligned_tracks.csv",
               ["trial", "lap", "t", "x", "y"], aligned_rows)
    return 0
