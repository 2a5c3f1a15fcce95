"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure) and then asserts, so a red run still reports every criterion.
"""

import time
from pathlib import Path

import numpy as np

from swimlap.cli import main
from swimlap.energetics import fit_power_law
from swimlap.localization import Track, curvature_radius
from swimlap.params import AnimalParams, get_animal
from swimlap.pipeline import analyze_trial
from swimlap.segmentation import pct_lap_time
from swimlap.simulator import LapScenario, preset_scenario, simulate

from conftest import make_config


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_normalization_constants():
    t0 = time.perf_counter()
    cases = [((156.2, 2.24), 7174.2), ((244.7, 2.54), 11983.1),
             ((142.6, 2.20), 6492.5)]
    worst = 0.0
    for (mass, length), expected in cases:
        params = AnimalParams(mass=mass, length=length, p_rmr=300.0)
        rel = abs(params.norm_constant - expected) / expected
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.002 and elapsed < 1.0
    report(1, ok, f"norm constants within {worst * 100:.3f}% "
                  f"(limit 0.2%), {elapsed:.3f}s")


def test_criterion_2_lap_normalization_properties():
    t0 = time.perf_counter()
    details = []
    # Exactly 50% at the cornering event.
    for t_c, t_end in [(20.0, 30.0), (7.31, 29.9), (11.0, 22.0)]:
        if pct_lap_time(t_c, t_c, t_end) != 50.0:
            details.append("corner not 50%")
    # Branch evaluations to 1e-12.
    if abs(pct_lap_time(10.0, 20.0, 30.0) - 25.0) > 1e-12:
        details.append("25% branch")
    if abs(pct_lap_time(20.0, 10.0, 30.0) - 75.0) > 1e-12:
        details.append("75% branch")
    # Monotone and continuous at the corner on random laps.
    rng = np.random.default_rng(77)
    for _ in range(200):
        t_end = rng.uniform(5.0, 90.0)
        t_c = t_end * rng.uniform(0.05, 0.95)
        t = np.linspace(0.0, t_end, 301)
        pct = pct_lap_time(t, t_c, t_end)
        if not np.all(np.diff(pct) > 0.0):
            details.append("monotonicity")
        gap = abs(pct_lap_time(np.nextafter(t_c, 0.0), t_c, t_end)
                  - pct_lap_time(np.nextafter(t_c, t_end), t_c, t_end))
        if gap > 1e-9:
            details.append("continuity")
    elapsed = time.perf_counter() - t0
    ok = not details and elapsed < 1.0
    report(2, ok, f"Eq mapping properties: {details or 'all hold'}, "
                  f"{elapsed:.3f}s")


def test_criterion_3_closed_loop_localization():
    t0 = time.perf_counter()
    scenario = LapScenario(animal=get_animal("TT01"))  # 30 m / 1.5 m / 4 m/s
    truth, tag = simulate(scenario)
    result = analyze_trial(tag, make_config(scenario.animal))
    ev = result.events[0]
    lap = truth.laps[0]

    radius = result.laps[0]["corner_radius_m"]
    radius_err = abs(radius - 1.5) / 1.5
    tc_err_samples = abs(ev.t_c - lap.t_apex) / 0.2
    length = float(np.sum(result.kin.v_xy) * result.kin.dt)
    length_err = abs(length - truth.path_length) / truth.path_length
    elapsed = time.perf_counter() - t0
    ok = (radius_err < 0.02 and tc_err_samples <= 1.0 + 1e-9
          and length_err < 0.005 and elapsed < 5.0)
    report(3, ok, f"radius err {radius_err * 100:.2f}% (<2%), "
                  f"t_c err {tc_err_samples:.2f} samples (<=1), "
                  f"path err {length_err * 100:.3f}% (<0.5%), {elapsed:.2f}s")


def test_criterion_4_energetics_equilibrium():
    from swimlap.energetics import thrust_power

    params = get_animal("TT01")
    v = np.linspace(0.2, 6.0, 120)
    depths = np.linspace(0.1, 8.0, 120)
    ps = thrust_power(np.arange(120) * 0.2, v, np.zeros(120), depths, params)
    resid = np.abs(ps.p_thrust + ps.p_drag)
    ok_eq = bool(np.all(resid < 1e-9 * np.abs(ps.p_drag)))

    # Steady 2 m/s deep water vs an independently coded formula evaluation.
    ps2 = thrust_power(np.array([0.0]), np.array([2.0]), np.array([0.0]),
                       np.array([10.0]), params)
    m_eff = 156.2 + 0.4 * 1030.0 * (156.2 / 1025.0)
    reference = (m_eff * 0.0 * 2.0
                 + 0.5 * 1030.0 * (0.08 * 156.2 ** 0.65)
                 * (16.99 * (2.0 * 2.24 / 1.044e-6) ** -0.47) * 1.0 * 2.0 ** 3)
    rel = abs(ps2.p_thrust[0] - reference) / reference
    ok_ref = rel < 0.005 and abs(reference - 113.9) / 113.9 < 0.005
    report(4, ok_eq and ok_ref,
           f"equilibrium residual < 1e-9*|P_drag| everywhere: {ok_eq}; "
           f"TT01 2 m/s = {ps2.p_thrust[0]:.2f} W vs one-off {reference:.2f} W "
           f"({rel * 100:.4f}% err, limit 0.5%)")


def test_criterion_5_power_law_fit_recovery():
    v = np.linspace(0.5, 2.5, 40)
    fit = fit_power_law(v, 0.0347 * v ** 2.08)
    coeff_err = abs(fit.coeff - 0.0347)
    exp_err = abs(fit.exponent - 2.08)
    ok_clean = coeff_err < 1e-6 and exp_err < 1e-6

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        vv = rng.uniform(0.5, 2.5, 50)
        pp = 0.0347 * vv ** 2.08 * (1.0 + rng.uniform(-0.1, 0.1, 50))
        noisy = fit_power_law(vv, pp)
        worst = max(worst, abs(noisy.exponent - 2.08))
    ok_mc = worst <= 0.15
    report(5, ok_clean and ok_mc,
           f"noise-free errs ({coeff_err:.2e}, {exp_err:.2e}) < 1e-6; "
           f"Monte-Carlo worst exponent err {worst:.3f} (limit 0.15)")


def test_criterion_6_curvature_convergence():
    errs = {}
    for dt in (0.2, 0.1):
        omega = 3.0 / 1.5
        t = np.arange(0.0, 2.0 * np.pi / omega, dt)
        track = Track(t=t, x=1.5 * np.cos(omega * t),
                      y=1.5 * np.sin(omega * t))
        r = curvature_radius(track, dt)[1:-1]
        errs[dt] = float(np.max(np.abs(r - 1.5)))
    ratio = errs[0.2] / errs[0.1]
    ok = 3.5 <= ratio <= 4.5
    report(6, ok, f"radius error ratio dt 0.2/0.1 = {ratio:.2f} "
                  f"(second order: ~4)")


def test_criterion_7_phase_work_accounting(preset_trials):
    # Lap samples are transient, consistent or glide, never rest (see
    # test_segmentation's lap-window test), so the three phases
    # partition the lap's work.
    worst = 0.0
    for name, (_, _, _, result) in preset_trials.items():
        for m in result.laps:
            total = m["thrust_work_j"]
            parts = (m["work_transient_j"] + m["work_consistent_j"]
                     + m["work_glide_j"])
            worst = max(worst, abs(parts - total) / max(abs(total), 1e-12))
    ok = worst < 1e-9
    report(7, ok, f"phase work partition residual {worst:.2e} "
                  f"(limit 1e-9 relative)")


def test_criterion_8_paper_scale_plausibility():
    t0 = time.perf_counter()
    trials = {}
    for name in ("TT01", "TT02", "TT03"):
        scenario = preset_scenario(name)
        _, tag = simulate(scenario)
        trials[name] = (scenario, None, tag,
                        analyze_trial(tag, make_config(scenario.animal)))

    duration_bands = {"TT01": (25.5, 45.9), "TT02": (17.9, 28.3),
                      "TT03": (21.5, 35.1)}
    power_bands = {"TT02": (900.0, 3700.0), "TT03": (500.0, 1700.0)}
    problems = []
    for name, (_, _, _, result) in trials.items():
        dur = float(np.mean([m["duration_s"] for m in result.laps]))
        lo, hi = duration_bands[name]
        if not lo <= dur <= hi:
            problems.append(f"{name} duration {dur:.1f} not in [{lo}, {hi}]")
        for m in result.laps:
            if not 1.3 <= m["turn_duration_s"] <= 1.8:
                problems.append(f"{name} turn {m['turn_duration_s']:.2f}")
        if name in power_bands:
            peak = float(np.mean([m["peak_power_w"] for m in result.laps]))
            lo, hi = power_bands[name]
            if not lo <= peak <= hi:
                problems.append(f"{name} peak power {peak:.0f} not in "
                                f"[{lo}, {hi}]")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30.0
    detail = (", ".join(problems) if problems
              else "durations, peak power, turn windows inside observed bands")
    report(8, ok, f"{detail}; {elapsed:.1f}s")


def test_criterion_9_determinism(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--preset", "TT01", "--laps", "2",
                 "--output-dir", str(sim)]) == 0
    out = tmp_path / "run"
    args = ["analyze", "--input", str(sim / "tag.csv"),
            "--output-dir", str(out), "--animal", "TT01"]
    assert main(args) == 0
    first = {p.relative_to(out): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    assert main(args) == 0
    second = {p.relative_to(out): p.read_bytes()
              for p in sorted(out.rglob("*")) if p.is_file()}
    identical = first.keys() == second.keys() and all(
        first[k] == second[k] for k in first)
    # The trial's three artifacts and the manifest, and nothing else.
    expected = {Path("manifest.json"), *(Path("tag") / name for name in (
        "series.csv", "laps.csv", "fits.json"))}
    report(9, identical and first.keys() == expected,
           f"two runs produced {len(first)} files, byte-identical: "
           f"{identical}")
