"""Fit statistics, LR tests, cost slopes, WTP, elasticities."""

import numpy as np
import pytest

from dce import (
    AlternativeDef,
    AttributeDef,
    EstimationResult,
    ExperimentSchema,
    Level,
    PostestError,
    build_parameter_index,
    cost_slope,
    elasticity_grid,
    fit_stats,
    lr_test,
    own_cost_elasticity,
    render_wtp_table,
    table4_labels_schema,
    table4_mmnl,
    table4_mnl,
    two_sided_p,
    wtp,
    wtp_report,
)


# p-values frozen from scipy 1.17.1 (scipy.stats.chi2.sf and
# scipy.special.erfc), which dce no longer imports
LR_ORACLE = [  # (df, statistic, p) for lr_test(-1000, -1000 + statistic / 2, df)
    (1, 0.5, 0.47950012218695337),
    (1, 3.841458820694124, 0.050000000000003146),
    (1, 30.0, 4.3204630578274955e-08),
    (2, 5.99, 0.05003662708658605),
    (2, 547.8, 1.1136312432584584e-119),
    (3, 7.5, 0.0575584519726364),
    (3, 200.0, 4.218541107192018e-43),
    (4, 1e-6, 0.999999999999875),
    (4, 12.0, 0.01735126523666451),
    (5, 2.0, 0.8491450360846096),
    (5, 90.0, 6.719319364852582e-18),
    (6, 16.8, 0.010047072044311127),
    (6, 1200.0, 4.786642678691298e-256),
]
TWO_SIDED_ORACLE = [  # (estimate, std_error, p)
    (0.1, 1.0, 0.920344325445942),
    (1.96, 1.0, 0.04999579029644087),
    (-2.5, 0.8, 0.0017780505982168675),
    (0.0, 1.0, 1.0),
    (3.0, 0.5, 1.9731752900754036e-09),
    (-12.0, 1.0, 3.552964224155409e-33),
    (37.0, 1.0, 1.1451142445050454e-299),
    (0.0001, 3.0, 0.9999734038479782),
]


@pytest.fixture(scope="module")
def mmnl_fix():
    return table4_mmnl()


@pytest.fixture(scope="module")
def mnl_fix():
    return table4_mnl()


@pytest.fixture(scope="module")
def labels():
    return table4_labels_schema()


class TestFitStats:
    def test_published_mnl(self, mnl_fix):
        fs = fit_stats(mnl_fix.ll_final, mnl_fix.ll_null, k=38)
        assert fs.rho2 == pytest.approx(0.215, abs=0.0005)
        assert fs.rho2_adj == pytest.approx(0.207, abs=0.001)

    def test_published_mmnl(self, mmnl_fix):
        fs = fit_stats(mmnl_fix.ll_final, mmnl_fix.ll_null, k=40)
        assert fs.rho2 == pytest.approx(0.274, abs=0.0005)
        # the printed adjusted value is 0.264; the definition applied to the
        # printed likelihoods gives 0.2657, a documented discrepancy
        assert fs.rho2_adj == pytest.approx(0.2657, abs=0.0005)

    def test_zero_improvement(self):
        fs = fit_stats(-100.0, -100.0, k=0)
        assert fs.rho2 == 0.0

    def test_validation(self):
        for ll_final, ll_null in ((-10.0, 5.0), (float("nan"), -20.0), (-10.0, float("nan")),
                                  (-10.0, float("-inf"))):
            with pytest.raises(PostestError) as err:
                fit_stats(ll_final, ll_null, k=1)
            assert err.value.code == "bad_loglik"
        with pytest.raises(PostestError) as err:
            fit_stats(-10.0, -20.0, k=-1)
        assert err.value.code == "bad_k"


class TestLrTest:
    def test_published_heterogeneity_statistic(self):
        t = lr_test(-3641.330, -3367.430, df=2)
        assert f"{t.statistic:.2f}" == "547.80"
        assert t.p_value < 1e-15

    def test_critical_value_anchor(self):
        # chi-square with 2 df: statistic 5.99 sits at p just above 0.05
        t = lr_test(-100.0, -100.0 + 5.99 / 2.0, df=2)
        assert t.p_value == pytest.approx(0.05, abs=5e-4)

    def test_misordered_models(self):
        with pytest.raises(PostestError) as err:
            lr_test(-50.0, -60.0, df=2)
        assert err.value.code == "misordered_models"
        with pytest.raises(PostestError) as err:
            lr_test(-60.0, -50.0, df=0)
        assert err.value.code == "bad_df"

    @pytest.mark.parametrize("df,stat,want", LR_ORACLE)
    def test_against_frozen_oracle(self, df, stat, want):
        t = lr_test(-1000.0, -1000.0 + stat / 2.0, df)
        assert t.p_value == pytest.approx(want, rel=1e-12, abs=0)

    def test_published_heterogeneity_p_value(self):
        # Table 4's MNL-vs-MMNL statistic, deep in the 2-df tail
        t = lr_test(-3641.330, -3367.430, df=2)
        assert t.p_value == pytest.approx(1.113631243258395e-119, rel=1e-12, abs=0)

    def test_p_value_stays_in_unit_interval(self):
        assert lr_test(-10.0, -10.0, df=3).p_value == 1.0
        assert lr_test(-10.0, -7.5, df=200).p_value == 1.0
        # 2000 df: every Poisson term is taken in logs, none overflows
        p = lr_test(-2000.0, -1200.0, df=2000).p_value
        assert 0.5 < p < 1.0

    @pytest.mark.parametrize("df", [1.5, 2.25, float("nan"), float("inf"), -1])
    def test_non_integer_df(self, df):
        with pytest.raises(PostestError) as err:
            lr_test(-60.0, -50.0, df=df)
        assert err.value.code == "bad_df"

    def test_integral_float_df(self):
        assert lr_test(-60.0, -50.0, df=2.0) == lr_test(-60.0, -50.0, df=2)

    def test_non_finite_loglik(self):
        for lls in ((-np.inf, -50.0), (-60.0, np.nan)):
            with pytest.raises(PostestError) as err:
                lr_test(*lls, df=2)
            assert err.value.code == "bad_loglik"


class TestTwoSidedP:
    @pytest.mark.parametrize("estimate,std_error,want", TWO_SIDED_ORACLE)
    def test_against_frozen_oracle(self, estimate, std_error, want):
        assert two_sided_p(estimate, std_error) == pytest.approx(want, rel=1e-12, abs=0)

    def test_no_std_error(self):
        for se in (0.0, -1.0, float("nan"), float("inf")):
            assert np.isnan(two_sided_p(1.0, se))


class TestCostSlope:
    def test_drone_slope_from_printed_coefficients(self, mmnl_fix, labels):
        cs = cost_slope(mmnl_fix, labels, "drone")
        assert cs.slope == pytest.approx(-0.0062640, abs=5e-7)
        assert cs.r_squared > 0.99
        assert len(cs.points) == 4

    def test_motorcycle_labeled_slope(self, mmnl_fix, labels):
        cs = cost_slope(mmnl_fix, labels, "motorcycle")
        assert cs.slope == pytest.approx(-0.0068710, abs=5e-7)

    def test_intercept_is_mean_coefficient(self, mmnl_fix, labels):
        # centered regression: the intercept is the fitted coefficient at
        # the mean cost, which is the coefficient mean; effects coding
        # makes that (up to the implied base level) about zero
        cs = cost_slope(mmnl_fix, labels, "drone")
        assert cs.intercept == pytest.approx(0.0, abs=1e-9)

    def test_shared_cost_attribute_reads_its_one_block(self):
        schema = ExperimentSchema(
            name="shared_fee",
            alternatives=(AlternativeDef("a"), AlternativeDef("b", is_reference=True)),
            attributes=(AttributeDef("fee", "shared",
                                     (Level("lo", 100.0), Level("mid", 200.0),
                                      Level("hi", 300.0))),),
        )
        index = build_parameter_index(schema)
        assert index.names() == ("asc_a", "fee:lo", "fee:mid")
        result = EstimationResult(index=index, params=np.array([0.3, 0.5, 0.1]),
                                  ll_final=-1.0, ll_null=-2.0, converged=True,
                                  iterations=1, model="mnl",
                                  base_levels={"fee:hi": -0.6})
        for mode in ("a", "b"):
            assert cost_slope(result, schema, mode).slope == pytest.approx(-0.0055, abs=1e-15)

    def test_unknown_mode(self, mmnl_fix, labels):
        with pytest.raises(PostestError) as err:
            cost_slope(mmnl_fix, labels, "zeppelin")
        assert err.value.code == "unknown_mode"


class TestWtp:
    def test_published_values(self, mmnl_fix, labels):
        report = wtp_report(mmnl_fix, labels)
        got = {(e.attribute): round(e.wtp_yen, 1) for e in report.entries}
        assert got["delivery_date_drone"] == pytest.approx(156.1, abs=0.5)
        assert got["delivery_date_motorcycle"] == pytest.approx(47.2,
                                                                abs=0.5)
        assert got["dropoff_motorcycle"] == pytest.approx(93.4, abs=0.5)
        assert got["social_influence"] == pytest.approx(29.7, abs=0.5)

    def test_doubling_for_binary_attribute(self, mmnl_fix, labels):
        entry = wtp(mmnl_fix, labels, "delivery_date_drone")
        coef = mmnl_fix.coefficient("delivery_date_drone:next_day")
        slope = cost_slope(mmnl_fix, labels, "drone").slope
        assert entry.delta_utility == pytest.approx(2 * coef, abs=1e-12)
        assert entry.wtp_yen == pytest.approx(-2 * coef / slope, abs=1e-9)

    def test_scale_invariance(self, mmnl_fix, labels):
        # scaling all utilities leaves WTP unchanged
        import copy

        scaled = copy.deepcopy(mmnl_fix)
        scaled.params = scaled.params * 2.5
        scaled.base_levels = {k: v * 2.5
                              for k, v in scaled.base_levels.items()}
        a = wtp(mmnl_fix, labels, "delivery_date_drone").wtp_yen
        b = wtp(scaled, labels, "delivery_date_drone").wtp_yen
        assert a == pytest.approx(b, rel=1e-10)

    def test_shared_attribute_slope_mode_choice(self, mmnl_fix, labels):
        neighbor = wtp(mmnl_fix, labels, "social_influence",
                       slope_mode="drone",
                       levels=("neighbor_70", "neighbor_30"))
        assert neighbor.wtp_yen == pytest.approx(29.7, abs=0.5)
        moto = wtp(mmnl_fix, labels, "social_influence",
                   slope_mode="motorcycle",
                   levels=("neighbor_70", "neighbor_30"))
        assert moto.wtp_yen != pytest.approx(neighbor.wtp_yen, abs=0.1)

    def test_cost_attribute_rejected(self, mmnl_fix, labels):
        with pytest.raises(PostestError) as err:
            wtp(mmnl_fix, labels, "delivery_cost_drone")
        assert err.value.code == "self_referential"

    def test_demographic_attribute_rejected(self, mmnl_fix, labels):
        with pytest.raises(PostestError) as err:
            wtp(mmnl_fix, labels, "gender")
        assert err.value.code == "not_a_design_attribute"

    def test_unknown_level(self, mmnl_fix, labels):
        with pytest.raises(PostestError) as err:
            wtp(mmnl_fix, labels, "social_influence", slope_mode="drone",
                levels=("neighbor_70", "nobody"))
        assert err.value.code == "unknown_level"

    def test_render_table_mentions_all_rows(self, mmnl_fix, labels):
        text = render_wtp_table(wtp_report(mmnl_fix, labels))
        for token in ("delivery_date_drone", "dropoff_motorcycle",
                      "social_influence", "wtp_yen"):
            assert token in text


class TestElasticity:
    def test_point_value_and_label(self, mmnl_fix, labels):
        e = own_cost_elasticity(mmnl_fix, labels, "drone",
                                price=680.0, probability=1 / 3)
        slope = cost_slope(mmnl_fix, labels, "drone").slope
        assert e.elasticity == pytest.approx(slope * 680.0 * (1 - 1 / 3),
                                             rel=1e-12)
        assert "extension" in e.note
        assert "not published" in e.note

    def test_probability_domain(self, mmnl_fix, labels):
        for bad in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(PostestError) as err:
                own_cost_elasticity(mmnl_fix, labels, "drone", 680.0, bad)
            assert err.value.code == "bad_probability"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -680.0, 0.0])
    def test_price_domain(self, mmnl_fix, labels, bad):
        # a price outside (0, inf) would give NaN grids or an elasticity of the wrong sign
        slope = cost_slope(mmnl_fix, labels, "drone").slope
        for call in (lambda: own_cost_elasticity(mmnl_fix, labels, "drone", bad, 1 / 3),
                     lambda: elasticity_grid(slope, bad, 1 / 3, [680.0]),
                     lambda: elasticity_grid(slope, 680.0, 1 / 3, [680.0, bad])):
            with pytest.raises(PostestError) as err:
                call()
            assert err.value.code == "bad_price"

    def test_grid_follows_logit_curve(self, mmnl_fix, labels):
        slope = cost_slope(mmnl_fix, labels, "drone").slope
        p0, prob0 = 680.0, 1 / 3
        grid = elasticity_grid(slope, p0, prob0, [340.0, 680.0, 1020.0])
        assert grid[1][1] == pytest.approx(prob0, abs=1e-12)
        # odds scale by exp(slope * (p - p0))
        for price, prob in grid:
            odds = prob / (1 - prob)
            want = prob0 / (1 - prob0) * np.exp(slope * (price - p0))
            assert odds == pytest.approx(want, rel=1e-10)
        assert grid[0][1] > prob0 > grid[2][1]

    @pytest.mark.parametrize("price0", [300000.0, 1e308])
    def test_grid_is_a_probability_at_any_price(self, mmnl_fix, labels, price0):
        # far from the anchor the odds exp(slope * (p - p0)) overflow; the
        # curve is then 1 below the anchor and 0 above it, with no warning
        slope = cost_slope(mmnl_fix, labels, "drone").slope
        grid = elasticity_grid(slope, price0, 0.3, np.linspace(0.5 * price0, 1.5 * price0, 21))
        probs = np.array([prob for _, prob in grid])
        assert np.all((probs >= 0) & (probs <= 1))
        assert np.all(np.diff(probs) <= 0)
        assert probs[0] == 1.0 and probs[-1] == 0.0
        assert probs[10] == pytest.approx(0.3, rel=1e-12)
