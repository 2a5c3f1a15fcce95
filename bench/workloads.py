"""Workload definitions: which trials each workload simulates and how it runs.

Plain data only, with no swimlap import, so the set-up child can start its
clock before the package is imported. ``bench/NOTES.md`` gives the reasons
behind each choice.
"""

from __future__ import annotations

# Sensor noise at the level the simulator tests use (NoiseSpec fields).
NOISE = {"accel": 0.05, "gyro": 0.005, "mag": 0.01, "depth": 0.02,
         "speed": 0.05}

# Truth-check tolerances. One master sample (0.2 s) is the corner-time
# limit of the zero-noise acceptance criterion; the noisy workloads get two.
# Radius limits are about twice the largest per-lap error seen over ten seeds
# (2.4 % without noise, 4.3 % with it).
WORKLOADS = {
    "long_trial": {
        "preset": "TT03", "laps": (64,), "noise": None, "mag": True,
        "jobs": 1, "time_tol_s": 0.2, "radius_tol": 0.04,
    },
    "batch_jobs2": {
        "preset": "TT02", "laps": (6, 8, 8, 10), "noise": NOISE, "mag": True,
        "jobs": 2, "time_tol_s": 0.4, "radius_tol": 0.08,
    },
    "nomag_noisy": {
        "preset": "TT03", "laps": (16, 16), "noise": NOISE, "mag": False,
        "jobs": 1, "time_tol_s": 0.4, "radius_tol": 0.08,
    },
}

# Lap count of every trial in the self-test's tiny runs.
TINY_LAPS = 2


def trial_plan(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """File name, lap count and simulator seed of each trial of a workload."""
    spec = WORKLOADS[workload]
    return [{"file": f"trial{i:02d}.csv",
             "laps": TINY_LAPS if tiny else laps,
             "seed": seed * 1000 + i}
            for i, laps in enumerate(spec["laps"])]
