"""Self-test of the benchmark: tiny runs of every workload, plus the checks.

    python3 bench/selftest.py

Runs every workload at the tiny size (two laps per trial) untraced through
``--workload all`` and traced one by one, and requires each run to pass the
truth check and to emit exactly the metrics ``BENCHMARK.json`` names, with
its units. Then it shows that the output checks catch a miss, and that the
benchmark fails without printing a result when the swimlap sources are
absent. Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from checks import RUN_LEVEL, byte_identity_failures, truth_check
from spans import Span, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP = BENCH / "out" / "selftest"


def check(ok: bool, what: str, detail: str = "") -> None:
    if not ok:
        raise SystemExit(f"selftest FAIL: {what}\n{detail}")
    print(f"ok: {what}")


def run_bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_result(label: str, proc, expected: dict[str, str]) -> None:
    check(proc.returncode == 0, f"{label} exits 0", proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label} result keys")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{label} passes the truth check")
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    check(units == expected, f"{label} emits every metric with its unit")
    check(all(isinstance(v["value"], (int, float))
              and math.isfinite(v["value"])
              for v in result["metrics"].values()),
          f"{label} values are finite numbers")


def test_tiny_runs(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    proc = run_bench(["--workload", "all", "--seed", "7", "--seconds", "0",
                      "--trace", "0", "--tiny"])
    check_result("all workloads, untraced", proc,
                 {f"{w}.{k}": u for w in WORKLOADS for k, u in e2e.items()})
    values = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    check(all(v["value"] > 0 for v in values.values()),
          "end-to-end metrics are never 0")
    for name in WORKLOADS:
        proc = run_bench(["--workload", name, "--seed", "7", "--seconds", "0",
                          "--trace", "1", "--tiny"])
        check_result(f"{name}, traced", proc, layers)


def test_checks_catch_misses() -> None:
    run = TMP / "run"
    shutil.rmtree(run, ignore_errors=True)
    (run / "t0").mkdir(parents=True)
    (run / "manifest.json").write_text(json.dumps(
        {"trials": [{"trial": "t0", "status": "ok"},
                    {"trial": "t1", "status": "failed", "error": "boom"}]}))
    (run / "t0" / "laps.csv").write_text(
        "lap,t_corner,corner_radius_m\n0,10.0,1.0\n1,40.5,1.3\n")
    truth = {"trials": [
        {"trial": "t0", "t_apex": [10.05, 40.0, 70.0], "corner_radius": 1.0},
        {"trial": "t1", "t_apex": [5.0], "corner_radius": 1.0}]}
    reasons, time_errs, radius_errs = truth_check(run, truth, 0.2, 0.05)
    check(len(reasons["t0"]) == 3 and "status failed" in reasons["t1"][0],
          "truth check reports lap count, corner time, radius and status")
    check(abs(time_errs[0] - 0.05) < 1e-9 and time_errs[1] == 0.5
          and len(radius_errs) == 2,
          "truth check measures every matched lap")

    first = {RUN_LEVEL: {"manifest.json": "a"}, "t0": {"t0/laps.csv": "b"},
             "t1": {"t1/laps.csv": "c"}}
    check(byte_identity_failures(first, first) == {},
          "identical artifacts pass")
    changed = {**first, "t1": {"t1/laps.csv": "x"}}
    check(set(byte_identity_failures(first, changed)) == {"t1"},
          "a changed trial artifact fails that trial")
    run_changed = {**first, RUN_LEVEL: {"manifest.json": "x"}}
    check(set(byte_identity_failures(first, run_changed)) == {"t0", "t1"},
          "a changed run-level artifact fails every trial")


def test_layer_self_time() -> None:
    spans = [Span("run_analyze", None, 0.0, 10.0),
             Span("write_normalized_csv", "pipeline.write_s", 1.0, 4.0,
                  parent=0),
             Span("normalize_lap", "segmentation.normalize_s", 2.0, 3.0,
                  parent=1),
             Span("parse_tag_csv", "ingest.parse_s", 5.0, 7.0, parent=0,
                  counts={"ingest.rows": 5})]
    out = layer_metrics(spans, 10.0)
    check(out["pipeline.write_s"] == 2.0
          and out["segmentation.normalize_s"] == 1.0
          and out["ingest.parse_s"] == 2.0 and out["ingest.rows"] == 5
          and out["pipeline.other_s"] == 5.0,
          "layer self time excludes child spans; other_s is uncovered wall")


def test_fails_without_sources(spec_path: Path) -> None:
    bare = TMP / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(spec_path, bare / "BENCHMARK.json")
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench" / path.name)
    proc = run_bench(["--workload", "long_trial", "--seed", "1",
                      "--seconds", "1", "--trace", "0"], cwd=bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and not last.startswith("{"),
          "fails without a result when the swimlap sources are absent")


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    try:
        test_checks_catch_misses()
        test_layer_self_time()
        test_fails_without_sources(spec_path)
        test_tiny_runs(spec)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
