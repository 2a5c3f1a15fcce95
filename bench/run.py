"""swimlap benchmark: simulate a workload's tag CSVs, analyze and report them
in-process, check the outputs against the simulator's ground truth, and
print the metrics.

    python3 bench/run.py --workload long_trial --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced repetitions and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics. ``--workload all`` runs every workload in its own process
and prints one row per workload. The last line of standard output is one
JSON object; the full record (provenance, every repetition, spans) goes to
``bench/out/results/``. ``bench/NOTES.md`` explains the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import artifact_digests, byte_identity_failures, rms, truth_check
from spans import Tracer, layer_metrics
from workloads import TINY_LAPS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 3        # set-up processes per run; setup_s is their median
MIN_REPS = 3          # untraced repetitions at least, whatever --seconds says
MIN_CYCLES = 2        # traced cycles at least
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "analyze_s": "s", "results_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio", "corner_time_err_s": "s",
    "corner_radius_rel_err": "ratio",
}
PER_LAYER = {
    "ingest.parse_s": "s", "ingest.rows": "count", "ingest.bytes": "bytes",
    "ingest.flagged_rows": "count", "ingest.resample_s": "s",
    "orientation.ahrs_s": "s", "orientation.samples": "count",
    "orientation.us_per_sample": "us", "kinematics.s": "s",
    "localization.s": "s", "energetics.power_s": "s",
    "energetics.fit_s": "s", "segmentation.s": "s",
    "segmentation.normalize_s": "s", "segmentation.laps": "count",
    "pipeline.write_s": "s", "pipeline.artifact_bytes": "bytes",
    "pipeline.report_s": "s", "pipeline.cpu_s": "s",
    "pipeline.jobs_speedup": "x", "pipeline.other_s": "s",
    "simulator.truth_s": "s", "simulator.synth_s": "s",
    "simulator.write_s": "s", "trace.overhead_s": "s",
}


def simulate_inputs(workload: str, seed: int, tiny: bool, out: Path) -> dict:
    """One set-up: a fresh process imports swimlap and writes the tag CSVs."""
    cmd = [sys.executable, str(BENCH / "simulate_inputs.py"),
           "--workload", workload, "--seed", str(seed), "--out", str(out)]
    proc = subprocess.run(cmd + (["--tiny"] if tiny else []), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def timed_rep(pipeline, cfg, tracer: Tracer | None = None) -> dict:
    """One repetition: ``run_analyze`` then ``run_report`` on a fresh run dir."""
    run_dir = Path(cfg.output_dir)
    shutil.rmtree(run_dir, ignore_errors=True)
    gc.collect()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    if tracer is None:
        code = pipeline.run_analyze(cfg)
    else:
        with tracer.patched(pipeline), tracer.span("run_analyze"):
            code = pipeline.run_analyze(cfg)
    t1, cpu1 = time.perf_counter(), _cpu_s()
    artifact_bytes = sum(p.stat().st_size for p in run_dir.rglob("*")
                         if p.is_file())
    t2 = time.perf_counter()
    pipeline.run_report(run_dir)
    t3 = time.perf_counter()
    rep = {"jobs": cfg.jobs, "exit": code, "analyze_s": t1 - t0,
           "report_s": t3 - t2, "results_s": (t1 - t0) + (t3 - t2),
           "cpu_s": cpu1 - cpu0, "artifact_bytes": artifact_bytes}
    if tracer is not None:
        rep["layers"] = layer_metrics(tracer.spans, t1 - t0)
        rep["spans"] = [dataclasses.asdict(s) for s in tracer.spans]
        rep["untraced_names"] = tracer.missing
    return rep


class OutputBook:
    """Checks every repetition's outputs and counts trial attempts and misses."""

    def __init__(self, truth: dict, spec: dict) -> None:
        self.truth = truth
        self.spec = spec
        self.trials = [t["trial"] for t in truth["trials"]]
        self.first_digests: dict | None = None
        self.time_errs: list[float] = []
        self.radius_errs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, run_dir: Path, label: str) -> None:
        reasons, time_errs, radius_errs = truth_check(
            run_dir, self.truth, self.spec["time_tol_s"],
            self.spec["radius_tol"])
        digests = artifact_digests(run_dir, self.trials)
        if self.first_digests is None:
            self.first_digests = digests
            self.time_errs, self.radius_errs = time_errs, radius_errs
        for trial, why in byte_identity_failures(self.first_digests,
                                                 digests).items():
            reasons.setdefault(trial, []).append(why)
        self.attempted += len(self.trials)
        self.failed += len(reasons)
        for trial in sorted(reasons):
            line = f"FAIL {label} {trial}: {'; '.join(reasons[trial])}"
            self.failures.append(line)
            print(line, flush=True)


def measure(pipeline, cfg, book: OutputBook, seconds: float,
            trace: bool) -> dict[str, list[dict]]:
    """Repeat until ``seconds`` have passed; returns repetitions by kind.

    Untraced: ``plain`` repetitions only. Traced: cycles of an untraced
    repetition, a traced one, and an untraced one at the other ``jobs``
    setting (1 <-> 2), which gives the single-threaded baseline.
    """
    reps: dict[str, list[dict]] = {"plain": [], "traced": [], "other_jobs": []}
    other = dataclasses.replace(cfg, jobs=1 if cfg.jobs > 1 else 2)
    run_dir = Path(cfg.output_dir)
    start = time.perf_counter()
    while (len(reps["plain"]) < (MIN_CYCLES if trace else MIN_REPS)
           or time.perf_counter() - start < seconds):
        steps = [("plain", cfg, None)]
        if trace:
            steps += [("traced", cfg, Tracer()), ("other_jobs", other, None)]
        for kind, run_cfg, tracer in steps:
            rep = timed_rep(pipeline, run_cfg, tracer)
            reps[kind].append(rep)
            book.check(run_dir, f"{kind} rep {len(reps[kind])} "
                                f"(jobs={run_cfg.jobs})")
    return reps


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def _fastest(reps: list[dict], key: str) -> float:
    """Wall times are reported as the fastest repetition of a run.

    Other tenants of the machine slow it down for tens of seconds at a time,
    and they can only add time. Over five seeds the quartile spread of the
    per-run median of ``analyze_s`` on ``nomag_noisy`` was 33 % of its
    median, that of the per-run minimum 18 %.
    """
    return min(r[key] for r in reps)


def end_to_end(reps, setups, book: OutputBook) -> dict:
    plain = reps["plain"]
    return {
        "analyze_s": _fastest(plain, "analyze_s"),
        "results_s": _fastest(plain, "results_s"),
        "setup_s": _median(setups, "setup_s"),
        # Linux reports ru_maxrss in KiB. This process ran no set-up.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "ok_ratio": 1.0 - book.failed / book.attempted,
        "corner_time_err_s": max(book.time_errs, default=float("nan")),
        "corner_radius_rel_err": rms(book.radius_errs),
    }


def per_layer(reps, setups) -> dict:
    plain, traced, other = reps["plain"], reps["traced"], reps["other_jobs"]
    # Times are medians over the traced repetitions; work counts repeat
    # exactly, so the first repetition's are taken.
    layers = {key: statistics.median(r["layers"][key] for r in traced)
              if key.endswith("_s") else value
              for key, value in traced[0]["layers"].items()}
    by_jobs = {r["jobs"]: _fastest([x for x in plain + other
                                    if x["jobs"] == r["jobs"]], "analyze_s")
               for r in plain + other}
    samples = layers["orientation.samples"]
    metrics = {
        **layers,
        "orientation.us_per_sample": layers["orientation.ahrs_s"] * 1e6
        / samples if samples else float("nan"),
        "pipeline.artifact_bytes": plain[0]["artifact_bytes"],
        "pipeline.report_s": _median(plain + traced, "report_s"),
        "pipeline.cpu_s": _median(plain, "cpu_s"),
        "pipeline.jobs_speedup": by_jobs[1] / by_jobs[2],
        "simulator.truth_s": _median(setups, "truth_s"),
        "simulator.synth_s": _median(setups, "synth_s"),
        "simulator.write_s": _median(setups, "write_s"),
        "trace.overhead_s": _fastest(traced, "analyze_s")
        - _fastest(plain, "analyze_s"),
    }
    return {key: metrics[key] for key in PER_LAYER}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool, work: Path) -> dict:
    spec = WORKLOADS[name]
    inputs = work / "inputs"
    setups = [simulate_inputs(name, seed, tiny, inputs)
              for _ in range(SETUP_RUNS)]
    truth = json.loads((inputs / "truth.json").read_text())

    import numpy
    from swimlap import pipeline
    from swimlap.params import get_animal

    cfg = pipeline.RunConfig(
        inputs=tuple(str(inputs / t["file"]) for t in truth["trials"]),
        output_dir=str(work / "run"), animal=get_animal(spec["preset"]),
        jobs=spec["jobs"])
    book = OutputBook(truth, spec)
    reps = measure(pipeline, cfg, book, seconds, trace)
    metrics = per_layer(reps, setups) if trace else end_to_end(reps, setups,
                                                               book)
    units = PER_LAYER if trace else END_TO_END
    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": git_commit(), "jobs": spec["jobs"],
        "trials": len(truth["trials"]),
        "laps": sum(len(t["t_apex"]) for t in truth["trials"]),
        "rows": sum(t["rows"] for t in truth["trials"]),
        "bytes": sum(t["bytes"] for t in truth["trials"]),
        "sim_seeds": [t["sim_seed"] for t in truth["trials"]],
        "reps": {kind: len(r) for kind, r in reps.items() if r},
    }
    return {
        "correct": book.failed == 0,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "provenance": provenance,
        "failures": book.failures,
        "setups": setups,
        "reps": reps,
    }


def print_table(rows: dict[str, dict], by_workload: bool) -> None:
    """End-to-end metrics: one row per workload, one column per metric.
    Per-layer metrics, which are many: one line per workload and metric."""
    for workload, res in rows.items():
        print(f"{workload}: correct={res['correct']} "
              f"failed_ratio={res['failed']}/{res['attempted']}")
    heads = {n: f"{n} [{m['unit']}]"
             for n, m in next(iter(rows.values()))["metrics"].items()}
    if not by_workload:
        for workload, res in rows.items():
            for n, head in heads.items():
                print(f"{workload}  {head:<34} "
                      f"{res['metrics'][n]['value']:.6g}")
        return
    width = max(len(w) for w in rows)
    print(f"{'workload':<{width}}  " + "  ".join(heads.values()))
    for workload, res in rows.items():
        print(f"{workload:<{width}}  " + "  ".join(
            f"{res['metrics'][n]['value']:.6g}".rjust(len(head))
            for n, head in heads.items()))


def run_all(args) -> dict:
    """Each workload in its own process, so each has its own peak RSS."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=3 * CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(f"workload {name} exited {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if line.startswith("FAIL"):
                print(line, flush=True)
        rows[name] = json.loads(lines[-1])
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=f"self-test size: every trial has {TINY_LAPS} laps")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (SRC / "swimlap" / "__init__.py").is_file():
        print(f"error: swimlap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        rows = run_all(args)
        print_table(rows, by_workload=not args.trace)
        result = {
            "correct": all(r["correct"] for r in rows.values()),
            "attempted": sum(r["attempted"] for r in rows.values()),
            "failed": sum(r["failed"] for r in rows.values()),
            "metrics": {f"{w}.{k}": v for w, r in rows.items()
                        for k, v in r["metrics"].items()},
        }
        print(json.dumps(result))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    try:
        full = run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.tiny, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(full, indent=1))
    print("provenance: " + json.dumps(full["provenance"]))
    print_table({args.workload: full}, by_workload=not args.trace)
    print(json.dumps({k: full[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
