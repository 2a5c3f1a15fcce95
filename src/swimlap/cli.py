"""Command-line entry point: ``swimlap simulate | analyze | report``.

Exit codes: 0 success, 1 analysis error (a trial failed), 2 usage or I/O
error (bad arguments, missing files, malformed config).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import yaml

from .params import animal_from, unknown_keys
from .pipeline import RunConfig, run_analyze, run_report
from .simulator import (
    LapScenario,
    NoiseSpec,
    ScenarioError,
    build_lap_phases,
    generate_truth,
    preset_scenario,
    synthesize_tag,
    write_tag_csv,
    write_truth_csv,
    write_truth_laps_csv,
)

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_USAGE = 2


def scenario_from_dict(raw: dict) -> LapScenario:
    data = dict(raw)
    preset = data.pop("preset", None)
    animal = data.pop("animal", None)
    unknown = unknown_keys(data, LapScenario.__dataclass_fields__)
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {unknown}")
    noise = data.get("noise")
    if noise is not None:
        if not isinstance(noise, dict):
            raise ScenarioError(f"noise must be a mapping, got {noise!r}")
        unknown = unknown_keys(noise, NoiseSpec.__dataclass_fields__,
                               "noise.")
        if unknown:
            raise ScenarioError(f"unknown scenario keys: {unknown}")
        data["noise"] = NoiseSpec(**noise)
    if preset is not None and animal is not None:
        raise ScenarioError("scenario sets both 'preset' and 'animal'; "
                            "a preset names its animal")
    if preset is not None:
        return preset_scenario(preset, **data)
    if animal is None:
        raise ScenarioError("scenario needs 'preset' or 'animal'")
    return LapScenario(animal=animal_from(animal), **data)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.scenario is None and args.preset is None:
        print("error: provide --scenario or --preset", file=sys.stderr)
        return EXIT_USAGE
    try:
        raw = {"preset": args.preset}
        if args.scenario is not None:
            with open(args.scenario) as fh:
                raw = yaml.safe_load(fh) or {}
            if not isinstance(raw, dict):
                raise ScenarioError(
                    f"scenario file {args.scenario} is not a mapping")
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.laps is not None:
            raw["n_laps"] = args.laps
        scenario = scenario_from_dict(raw)
        build_lap_phases(scenario)  # infeasible geometry raises here
    except (ScenarioError, TypeError, ValueError, OSError,
            yaml.YAMLError) as exc:
        # One line, however many the message spans (a YAML error's do).
        print(f"error: invalid scenario: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return EXIT_USAGE

    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    truth = generate_truth(scenario)
    tag = synthesize_tag(truth)
    write_tag_csv(tag, out / "tag.csv")
    write_truth_csv(truth, out / "truth.csv")
    write_truth_laps_csv(truth, out / "truth_laps.csv")
    print(f"wrote {out / 'tag.csv'} ({tag.n_imu} IMU rows, "
          f"{tag.n_slow} depth/speed rows) and ground truth")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    overrides = {
        "inputs": tuple(args.input) if args.input else None,
        "output_dir": args.output_dir,
        "animal": args.animal,
        "jobs": args.jobs,
    }
    try:
        raw = {}
        if args.config is not None:
            raw = yaml.safe_load(Path(args.config).read_text())
            if not isinstance(raw, dict):
                raise ValueError(f"config file {args.config} is not a mapping")
        cfg = RunConfig.from_dict(raw, overrides)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError, KeyError, yaml.YAMLError) as exc:
        print(f"error: invalid config: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return EXIT_USAGE

    try:
        code = run_analyze(cfg)
    except (OSError, ValueError) as exc:  # also an output path that is a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    manifest = Path(cfg.output_dir) / "manifest.json"
    if code == 0:
        print(f"analysis complete: {manifest}")
    else:
        trials = json.loads(manifest.read_text())["trials"]
        for status in trials:
            if status["status"] != "ok":
                print(f"trial {status['trial']} failed: {status['error']}",
                      file=sys.stderr)
        print(f"analysis finished with failures: {manifest}", file=sys.stderr)
    return code


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        run_report(args.run_dir)
    except OSError as exc:  # also a report path that is a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    print(f"report written under {Path(args.run_dir) / 'report'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swimlap",
        description="Reconstruct swim-lap tracks and propulsive energetics "
                    "from biologging tag data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate",
                           help="generate a synthetic tag trial + ground truth")
    p_sim.add_argument("--scenario", help="scenario YAML file")
    p_sim.add_argument("--preset", help="built-in scenario (TT01/TT02/TT03)")
    p_sim.add_argument("--output-dir", required=True)
    p_sim.add_argument("--seed", type=int, help="override scenario seed")
    p_sim.add_argument("--laps", type=int, help="override lap count")
    p_sim.set_defaults(func=_cmd_simulate)

    p_an = sub.add_parser("analyze", help="run the estimation pipeline")
    p_an.add_argument("--config", help="run configuration YAML")
    p_an.add_argument("--input", action="append",
                      help="tag CSV (repeatable; overrides config inputs)")
    p_an.add_argument("--output-dir")
    p_an.add_argument("--animal", help="animal preset name (TT01/TT02/TT03)")
    p_an.add_argument("--jobs", type=int)
    p_an.set_defaults(func=_cmd_analyze)

    p_rep = sub.add_parser("report", help="aggregate a completed run")
    p_rep.add_argument("--run-dir", required=True)
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
