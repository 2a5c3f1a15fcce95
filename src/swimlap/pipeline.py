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
    read_table,
    resample_linear,
    write_table,
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

NORMALIZED_CHANNELS = ("v", "a_t", "a_n", "depth", "p_thrust", "cot", "x", "y")

FIT_CLASSES = ("af", "cs", "trans")

# Per-lap columns of laps.csv that the report's phase-work table copies,
# and the per-class statistics (``<class>_<stat>``) of its power table.
WORK_COLUMNS = ("work_transient_j", "work_consistent_j", "work_glide_j",
                "work_af_j", "thrust_work_j", "thrust_work_signed_j",
                "drag_work_j")
CLASS_STATS = ("mean_speed_ms", "mean_speed_bl", "mean_power_w",
               "mean_power_nd", "mean_cot")


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
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        for key in ("origin", "station"):
            point = getattr(self, key)
            if point is not None and not (
                    len(point) == 2 and all(map(math.isfinite, point))):
                raise ValueError(
                    f"{key} must be two finite numbers, got {point!r}")
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
        timeline, smooth_window_s=cfg.smooth_window_s)
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


def write_laps_csv(result: TrialResult, path: Path) -> None:
    first = result.laps[0] if result.laps else {}
    keys = ["lap"] + [k for k in first if k != "lap"]
    write_table(path, {k: [row[k] for row in result.laps] for k in keys})


def write_energetics_csv(result: TrialResult, path: Path) -> None:
    kin, power = result.kin, result.power
    write_table(path, {
        "t": kin.t, "v": kin.v, "a_t": kin.a_t, "depth": kin.depth,
        "gamma": power.gamma, "F_drag": power.f_drag,
        "F_thrust": power.f_thrust, "P_thrust": power.p_thrust,
        "P_t_nd": power.p_thrust_nd, "COT": power.cot})


def write_normalized_csv(result: TrialResult, path: Path, grid_n: int) -> None:
    channels = {
        "v": result.kin.v, "a_t": result.kin.a_t, "a_n": result.kin.a_n,
        "depth": result.kin.depth, "p_thrust": result.power.p_thrust,
        "cot": result.power.cot, "x": result.track.x, "y": result.track.y,
    }
    norms = [normalize_lap(channels, result.kin.t, ev, grid_n)
             for ev in result.events]
    columns = {"lap": [lap for lap, norm in enumerate(norms)
                       for _ in norm.pct],
               "pct": _joined([norm.pct for norm in norms])}
    for c in NORMALIZED_CHANNELS:
        columns[c] = _joined([norm.channels[c] for norm in norms])
    write_table(path, columns)


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """``arrays`` end to end as one float column (empty for no arrays)."""
    return np.concatenate(arrays) if arrays else np.empty(0)


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
        track_to_csv(result.track, trial_dir / "track.csv")
        artifacts = ["track.csv"]
        if cfg.origin is not None:
            track_to_geojson(result.track, trial_dir / "track.geojson",
                             cfg.origin)
            artifacts.append("track.geojson")
        write_laps_csv(result, trial_dir / "laps.csv")
        write_energetics_csv(result, trial_dir / "energetics.csv")
        write_normalized_csv(result, trial_dir / "normalized.csv", cfg.grid_n)
        (trial_dir / "fits.json").write_text(
            json.dumps(fit_summary(result.laps), sort_keys=True,
                       indent=2) + "\n")
        artifacts += ["laps.csv", "energetics.csv", "normalized.csv",
                      "fits.json"]
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
                   "origin": list(cfg_use.origin) if cfg_use.origin else None},
        "config_hash": cfg_use.config_hash(),
        "inputs": [{"path": str(p), "sha256": _sha256(Path(p))}
                   for p in cfg_use.inputs],
        "trials": [statuses[Path(p).stem] for p in cfg_use.inputs],
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    failed = [s for s in manifest["trials"] if s["status"] != "ok"]
    return 1 if failed else 0


def _normalized_mean(norm: dict[str, list[str]]) -> dict[str, list]:
    """Mean and std over the laps of each ``normalized.csv`` channel.

    One row per lap percentage; non-finite samples are left out, and a
    percentage without any finite sample gets NaN.
    """
    by_pct: dict[str, list[int]] = {}
    for i, pct in enumerate(norm["pct"]):
        by_pct.setdefault(pct, []).append(i)
    pcts = sorted(by_pct, key=float)
    table: dict[str, list] = {"pct": pcts}
    for c, cells in norm.items():
        if c in ("lap", "pct"):
            continue
        values = np.array(cells, dtype=float)
        means, stds = [], []
        for pct in pcts:
            vals = values[by_pct[pct]]
            vals = vals[np.isfinite(vals)]
            means.append(vals.mean() if len(vals) else math.nan)
            stds.append(vals.std() if len(vals) else math.nan)
        table[f"{c}_mean"] = means
        table[f"{c}_std"] = stds
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
    trials = manifest.get("trials", [])
    if not trials:
        raise ValueError("incomplete run manifest: no trials recorded")

    report_dir = run_dir / "report"
    report_dir.mkdir(exist_ok=True)

    work: dict[str, list] = {c: [] for c in ("trial", "lap", *WORK_COLUMNS)}
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

        # Each table's text is freed as soon as its numbers are taken, so the
        # normalized and track text are never held while laps are aligned.
        write_table(report_dir / f"{trial}_normalized_mean.csv",
                    _normalized_mean(read_table(trial_dir / "normalized.csv")))

        work["trial"] += [trial] * len(lap_ids)
        for c in ("lap", *WORK_COLUMNS):
            work[c] += laps[c]
        for i, lap_id in enumerate(lap_ids):
            for cls in FIT_CLASSES:
                speed["trial"].append(trial)
                speed["lap"].append(lap_id)
                speed["class"].append(cls)
                for stat in CLASS_STATS:
                    speed[stat].append(laps[f"{cls}_{stat}"][i])

        track = read_table(trial_dir / "track.csv")
        t, x, y = (np.array(track[c], dtype=float) for c in ("t", "x", "y"))
        del track
        tracks, corners, keep = [], [], []
        for i, lap_id in enumerate(lap_ids):
            # The lap's half-open sample window, as in LapEvents.window.
            idx = np.flatnonzero((t >= float(laps["t_start"][i]))
                                 & (t < float(laps["t_end"][i])))
            if len(idx) < 3:
                continue
            ci = int(np.argmin(np.abs(t[idx] - float(laps["t_corner"][i]))))
            tracks.append(Track(t=t[idx], x=x[idx], y=y[idx]))
            corners.append(ci)
            keep.append(lap_id)
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
