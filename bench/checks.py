"""Output checks: each trial against the simulator's ground truth, and each
repetition's artifacts against the first repetition's bytes."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

RUN_LEVEL = "(run)"


def artifact_digests(run_dir: Path, trials: list[str]) -> dict[str, dict]:
    """SHA-256 of every file of a run, grouped by the trial that owns it.

    A trial owns its own directory and its ``report/<trial>_*`` tables; the
    manifest and the cross-trial report tables belong to the run.
    """
    groups: dict[str, dict] = {t: {} for t in [*trials, RUN_LEVEL]}
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(run_dir)
        top = rel.parts[0]
        if top == "report":
            owner = next((t for t in trials
                          if rel.name.startswith(f"{t}_")), RUN_LEVEL)
        else:
            owner = top if top in groups else RUN_LEVEL
        groups[owner][str(rel)] = hashlib.sha256(path.read_bytes()).hexdigest()
    return groups


def byte_identity_failures(first: dict, now: dict) -> dict[str, str]:
    """Trial -> reason, for every trial whose artifacts changed bytes.

    A changed run-level file fails every trial of the repetition.
    """
    def diff(a: dict, b: dict) -> str | None:
        changed = sorted(set(a) ^ set(b) | {k for k in a.keys() & b.keys()
                                             if a[k] != b[k]})
        return f"artifacts differ from first repetition: {changed[:3]}" \
            if changed else None

    run_reason = diff(first[RUN_LEVEL], now[RUN_LEVEL])
    out = {}
    for trial in first:
        if trial == RUN_LEVEL:
            continue
        reason = run_reason or diff(first[trial], now[trial])
        if reason:
            out[trial] = reason
    return out


def truth_check(run_dir: Path, truth: dict, time_tol_s: float,
                radius_tol: float) -> tuple[dict[str, list[str]], list, list]:
    """Check each trial's manifest status and laps against the truth.

    Returns trial -> reasons for every trial that misses, plus the corner
    time errors (s) and relative corner radius errors of all matched laps.
    """
    manifest = json.loads((run_dir / "manifest.json").read_text())
    status = {t["trial"]: t for t in manifest["trials"]}
    reasons: dict[str, list[str]] = {}
    time_errs, radius_errs = [], []
    for trial in truth["trials"]:
        name, miss = trial["trial"], []
        entry = status.get(name, {"status": "missing"})
        if entry["status"] != "ok":
            reasons[name] = [f"status {entry['status']}: "
                             f"{entry.get('error', '')}".rstrip(": ")]
            continue
        with (run_dir / name / "laps.csv").open(newline="") as fh:
            laps = list(csv.DictReader(fh))
        if len(laps) != len(trial["t_apex"]):
            miss.append(f"{len(laps)} laps detected, truth has "
                        f"{len(trial['t_apex'])}")
        for lap, t_apex in zip(laps, trial["t_apex"]):
            t_err = abs(float(lap["t_corner"]) - t_apex)
            r_err = abs(float(lap["corner_radius_m"]) - trial["corner_radius"]) \
                / trial["corner_radius"]
            time_errs.append(t_err)
            radius_errs.append(r_err)
            if not t_err <= time_tol_s + 1e-9:
                miss.append(f"lap {lap['lap']} corner time error {t_err:.3f} s "
                            f"> {time_tol_s} s")
            if not r_err <= radius_tol:  # also catches nan
                miss.append(f"lap {lap['lap']} corner radius error "
                            f"{r_err:.1%} > {radius_tol:.0%}")
        if miss:
            reasons[name] = miss
    return reasons, time_errs, radius_errs


def rms(values: list[float]) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values)) \
        if values else float("nan")
