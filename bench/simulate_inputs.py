"""Set-up step of the benchmark, run in its own process.

Imports swimlap, simulates every trial of one workload and writes its tag
CSVs, the same path ``swimlap simulate`` takes. The clock starts before
the import. Prints one JSON line with the set-up time and its stage times,
and writes the ground truth the benchmark checks against to
``<out>/truth.json``. Usage::

    python3 bench/simulate_inputs.py --workload long_trial --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, trial_plan

SRC = Path(__file__).resolve().parent.parent / "src"


def _data_rows(path: Path) -> int:
    with path.open("rb") as fh:
        return sum(1 for _ in fh) - 1  # minus the header


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from swimlap.simulator import (NoiseSpec, generate_truth, preset_scenario,
                                   synthesize_tag, write_tag_csv)

    spec = WORKLOADS[args.workload]
    noise = NoiseSpec(**spec["noise"]) if spec["noise"] else NoiseSpec()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stages = {"truth_s": 0.0, "synth_s": 0.0, "write_s": 0.0}
    made = []
    for trial in trial_plan(args.workload, args.seed, args.tiny):
        scenario = preset_scenario(spec["preset"], n_laps=trial["laps"],
                                   seed=trial["seed"], noise=noise)
        a = time.perf_counter()
        truth = generate_truth(scenario)
        b = time.perf_counter()
        tag = synthesize_tag(truth)
        if not spec["mag"]:
            tag = dataclasses.replace(tag, mag=None)  # empty mx/my/mz cells
        c = time.perf_counter()
        write_tag_csv(tag, out / trial["file"])
        d = time.perf_counter()
        stages["truth_s"] += b - a
        stages["synth_s"] += c - b
        stages["write_s"] += d - c
        made.append((trial, scenario, truth, tag))
    setup_s = time.perf_counter() - t0

    truth_out = [{
        "file": trial["file"],
        "trial": Path(trial["file"]).stem,
        "sim_seed": trial["seed"],
        "t_apex": [lap.t_apex for lap in truth.laps],
        "corner_radius": scenario.corner_radius,
        "rows": _data_rows(out / trial["file"]),
        "bytes": (out / trial["file"]).stat().st_size,
    } for trial, scenario, truth, tag in made]
    (out / "truth.json").write_text(json.dumps({"trials": truth_out}))
    print(json.dumps({"setup_s": setup_s, **stages}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
