"""Acceptance checks: one test per shipped claim, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with -v as the test
outcome, and in captured output on failure) and enforces its runtime bound.
Criterion 1 asserts the null log-likelihood derivation -n_tasks*ln(3) to
1e-9 and compares it with the published anchor -4640.54 at the anchor's
printed precision, half a unit in the second decimal. The paper prints its
log-likelihoods to two decimals (the transcribed fixtures hold -4640.54,
-3641.33 and -3367.43, and criterion 4's 547.80 is exact only at that
precision), so a third decimal of the anchor is not part of the source.
"""

import math
import time

import numpy as np
import pytest

from dce import (
    HaltonConfig,
    MixingSpec,
    SimConfig,
    block_design,
    code_dataset,
    default_schema,
    estimate_mnl,
    fit_stats,
    lr_test,
    mnl_loglik,
    msl_gradient,
    msl_loglik,
    recovery_experiment,
    select_fraction,
    simulate_dataset,
    table4_labels_schema,
    table4_mmnl,
    within_block_deviation,
    wtp_report,
)

from helpers import (binary_asc_dataset, binary_asc_schema, finite_diff_grad,
                     mnl_probabilities, mnl_score, simulated_panel)


def report(n, ok, detail):
    line = f"acceptance {n:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def panel4224(design32):
    """528 respondents x 8 tasks x 3 alternatives."""
    return simulated_panel(design32, 528, seed=1)


def test_criterion_01_null_loglik_identity(panel4224):
    _, _, panel, _ = panel4224
    assert panel.n_tasks == 4224
    t0 = time.perf_counter()
    ll0 = mnl_loglik(np.zeros(panel.index.n_params), panel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0

    derived = -panel.n_tasks * math.log(3.0)
    assert ll0 == pytest.approx(derived, abs=1e-9)
    # the ll_null that estimate_mnl/estimate_mmnl store and `dce fit` prints
    assert panel.null_loglik() == pytest.approx(derived, abs=1e-9)

    # The published anchor is printed to two decimals, like every
    # log-likelihood of the source: fixtures/table4_*.json hold ll_null
    # -4640.54 and ll_final -3641.33 / -3367.43, and criterion 4's LR 547.80
    # is exact only at that precision. PAPER.md holds only the abstract, so
    # the printed table itself is not in this repository; the two-decimal
    # reading rests on the fixtures and on criterion 4. Compare within half
    # a unit in the last printed place: 4223 tasks (-4639.44) or a
    # two-alternative null (-2927.85) still fail.
    anchor = -4640.54
    tol = 0.005
    gap = abs(ll0 - anchor)
    report(1, gap <= tol,
           f"mnl_loglik(0) = {ll0:.6f} == -{panel.n_tasks}*ln(3) = "
           f"{derived:.6f}; printed anchor {anchor:.2f} (two decimals); "
           f"|gap| = {gap:.6f} vs half a printed unit {tol}; "
           f"round(ll0, 2) = {round(ll0, 2):.2f}")


def test_criterion_02_fit_statistics():
    t0 = time.perf_counter()
    mnl = fit_stats(-3641.330, -4640.540, 38)
    mmnl = fit_stats(-3367.430, -4640.540, 40)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0

    checks = [
        ("mnl rho2", mnl.rho2, 0.215, 0.0005),
        ("mmnl rho2", mmnl.rho2, 0.274, 0.0005),
        ("mnl rho2_adj", mnl.rho2_adj, 0.207, 0.001),
    ]
    for label, got, want, tol in checks:
        assert abs(got - want) <= tol, (label, got, want)
    # documented discrepancy, not a failure: the printed adjusted value for
    # the mixed model is 0.264, but (1 - (ll-k)/ll0) with k=40 gives 0.2657
    assert mmnl.rho2_adj == pytest.approx(0.26572, abs=0.0005)
    print("note: mmnl rho2_adj computes to "
          f"{mmnl.rho2_adj:.4f}; the printed table says 0.264 "
          "(documented discrepancy)")
    report(2, True,
           f"rho2 mnl {mnl.rho2:.4f} (0.215+-0.0005), "
           f"mmnl {mmnl.rho2:.4f} (0.274+-0.0005), "
           f"adj mnl {mnl.rho2_adj:.4f} (0.207+-0.001)")


def test_criterion_03_wtp_reproduction():
    t0 = time.perf_counter()
    rep = wtp_report(table4_mmnl(), table4_labels_schema())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0

    by_attr = {e.attribute: e for e in rep.entries}
    targets = [
        ("delivery_date_drone", 156.0),
        ("delivery_date_motorcycle", 47.0),
        ("dropoff_motorcycle", 93.0),
        ("social_influence", 30.0),
    ]
    got = {}
    for attr, want in targets:
        entry = by_attr[attr]
        got[attr] = entry.wtp_yen
        assert abs(entry.wtp_yen - want) <= 1.0, (attr, entry.wtp_yen, want)
    assert by_attr["social_influence"].cost_slope_mode == "drone"
    report(3, True,
           "wtp yen: " + ", ".join(f"{a} {v:.1f}" for a, v in got.items())
           + " (each within +-1 of 156/47/93/30)")


def test_criterion_04_lr_statistic():
    t0 = time.perf_counter()
    lr = lr_test(-3641.330, -3367.430, df=2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert f"{lr.statistic:.2f}" == "547.80"
    assert lr.p_value < 1e-15
    report(4, True,
           f"LR = {lr.statistic:.2f} (== 547.80), df 2, "
           f"p = {lr.p_value:.3g} < 1e-15")


def test_criterion_05_gradient_correctness(panel50):
    panel = panel50["panel"]
    k = panel.index.n_params
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()

    worst_mnl = 0.0
    for _ in range(10):
        x = rng.uniform(-0.3, 0.3, size=k)
        ga = mnl_score(x, panel)
        gf = finite_diff_grad(lambda p: mnl_loglik(p, panel), x)
        worst_mnl = max(worst_mnl,
                        np.max(np.abs(ga - gf)) / np.max(np.abs(gf)))
    assert worst_mnl <= 1e-6

    mixing = MixingSpec(random_params=("asc_drone", "asc_truck"),
                        halton=HaltonConfig(n_draws=16, drop=10))
    worst_msl = 0.0
    for _ in range(10):
        x = np.concatenate([rng.uniform(-0.3, 0.3, size=k),
                            rng.uniform(0.2, 1.0, size=2)])
        ga = msl_gradient(x, panel, mixing)
        gf = finite_diff_grad(lambda p: msl_loglik(p, panel, mixing), x)
        worst_msl = max(worst_msl,
                        np.max(np.abs(ga - gf)) / np.max(np.abs(gf)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    assert worst_msl <= 1e-5
    report(5, True,
           f"max relative gradient error over 10 points: "
           f"mnl {worst_mnl:.2e} (<=1e-6), msl {worst_msl:.2e} (<=1e-5), "
           f"{elapsed:.1f}s")


def test_criterion_06_degeneracy_oracle(panel50, design32):
    panel = panel50["panel"]
    k = panel.index.n_params
    rng = np.random.default_rng(7)
    mixing = MixingSpec(random_params=("asc_drone", "asc_truck"),
                        halton=HaltonConfig(n_draws=64, drop=10))
    t0 = time.perf_counter()

    x = rng.uniform(-0.4, 0.4, size=k)
    gap_zero = abs(msl_loglik(np.concatenate([x, [0.0, 0.0]]), panel, mixing)
                   - mnl_loglik(x, panel))
    assert gap_zero <= 1e-8

    # frozen toy panel and pseudo-random oracle
    _, _, toy, truth = simulated_panel(design32, 8, seed=5,
                                       sds=(1.5, 1.241))
    mix500 = MixingSpec(random_params=("asc_drone", "asc_truck"),
                        halton=HaltonConfig(n_draws=500, drop=10))
    ll_halton = msl_loglik(truth, toy, mix500)
    mc = np.random.default_rng(123).standard_normal((8, 100_000, 2))
    ll_mc = msl_loglik(truth, toy, mix500, draws=mc)
    gap_mc = abs(ll_halton - ll_mc)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    assert gap_mc <= 0.05
    report(6, True,
           f"sd=0 vs mnl gap {gap_zero:.2e} (<=1e-8); halton-500 vs "
           f"1e5-draw monte carlo gap {gap_mc:.4f} (<=0.05), {elapsed:.1f}s")


def test_criterion_07_parameter_recovery(design32, schema_labels):
    truth = table4_mmnl().params.copy()
    mixing = MixingSpec(random_params=("asc_drone", "asc_truck"),
                        halton=HaltonConfig(n_draws=500, drop=10))
    t0 = time.perf_counter()
    corrs, sd_zs = [], []
    for seed in (5, 6, 7):
        cfg = SimConfig(schema=schema_labels, design=design32,
                        true_params=truth, mixing=mixing,
                        n_respondents=528, seed=seed)
        rep = recovery_experiment(cfg, "mmnl")
        assert rep.result.converged, f"seed {seed} did not converge"
        corrs.append(rep.correlation)
        sd_zs.append([r.abs_z for r in rep.rows[38:]])
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0

    mean_corr = float(np.mean(corrs))
    mean_sd_z = np.mean(sd_zs, axis=0)
    assert mean_corr >= 0.95, corrs
    assert np.all(mean_sd_z <= 3.0), sd_zs
    report(7, True,
           f"fixed-param correlation per seed {[f'{c:.4f}' for c in corrs]} "
           f"(mean {mean_corr:.4f} >= 0.95); sd |z| means "
           f"{[f'{z:.2f}' for z in mean_sd_z]} (<=3); {elapsed:.0f}s")


def test_criterion_08_small_instance_closed_form():
    t0 = time.perf_counter()
    dataset = binary_asc_dataset(75, 25)
    panel = code_dataset(dataset)
    result = estimate_mnl(panel)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    got = result.params[0]
    want = math.log(3.0)
    assert abs(got - want) <= 1e-3
    report(8, True,
           f"asc estimate {got:.6f} vs ln 3 = {want:.6f} "
           f"(|gap| {abs(got - want):.2e} <= 1e-3)")


def test_criterion_09_design_quality():
    t0 = time.perf_counter()
    design = select_fraction(default_schema(), 64, seed=7, iters=2000)
    design = block_design(design, 8, seed=7)
    diag = design.diagnostics
    dev = within_block_deviation(design)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert diag.max_level_imbalance == 0
    assert dev <= 1.0
    assert diag.max_abs_column_correlation <= 0.05
    report(9, True,
           f"64 runs / 8 blocks: level imbalance {diag.max_level_imbalance} "
           f"(exact), within-block deviation {dev:.1f} (<=1), max |column "
           f"correlation| {diag.max_abs_column_correlation:.4f} (<=0.05), "
           f"{elapsed:.1f}s")


def test_criterion_10_simulation_convergence(design32, schema_labels):
    truth = table4_mmnl().params[:38]
    fixed_demo = {}
    for attr in schema_labels.attributes:
        if attr.scope == "demographic":
            labels = [l.label for l in attr.levels]
            fixed_demo[attr.name] = {l: (1.0 if i == 0 else 0.0)
                                     for i, l in enumerate(labels)}
    t0 = time.perf_counter()
    cfg = SimConfig(schema=schema_labels, design=design32,
                    true_params=truth, n_respondents=12_500, seed=2026,
                    demographic_weights=fixed_demo)
    dataset = simulate_dataset(cfg)
    assert dataset.n_tasks == 100_000

    # identical respondents and balanced blocks: every run is shown the same
    # number of times, so the analytic benchmark is the plain mean of the
    # per-run choice probabilities
    probe = simulate_dataset(SimConfig(
        schema=schema_labels, design=design32, true_params=truth,
        n_respondents=4, seed=0, demographic_weights=fixed_demo))
    panel = code_dataset(probe)
    assert panel.n_tasks == 32
    p_runs = [mnl_probabilities(truth,
                                panel.X[panel.task_ptr[t]:panel.task_ptr[t + 1]])
              for t in range(panel.n_tasks)]
    p_mean = np.mean(p_runs, axis=0)

    alt_order = [a.id for a in schema_labels.alternatives]
    counts = {a: 0 for a in alt_order}
    for resp in dataset.respondents:
        for obs in resp.observations:
            counts[obs.chosen] += 1
    shares = np.array([counts[a] / dataset.n_tasks for a in alt_order])
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0

    gap = np.max(np.abs(shares - p_mean))
    assert gap <= 0.005
    report(10, True,
           f"shares {np.round(shares, 4).tolist()} vs analytic "
           f"{np.round(p_mean, 4).tolist()}; max gap {gap:.4f} (<=0.005) "
           f"at 1e5 tasks, {elapsed:.1f}s")
