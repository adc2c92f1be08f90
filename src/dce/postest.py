"""Post-estimation analytics: fit indices, likelihood-ratio tests,
willingness to pay, and own-cost elasticities.

Categorical cost coefficients are linearized by an ordinary-least-squares fit
of coefficient on yen over all levels, the base level entering through its
implied (negated-sum) coefficient. WTP then follows the marginal rate of
substitution -delta_utility / slope. Elasticities are not published numbers;
every elasticity report is labeled an extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PostestError, _integer, _real
from .results import EstimationResult
from .schema import AttributeDef, ExperimentSchema, _block_prefix

__all__ = ["FitStats", "LrTest", "CostSlope", "WtpEntry", "WtpReport",
           "ElasticityEntry", "fit_stats", "lr_test",
           "cost_slope", "wtp", "wtp_report", "own_cost_elasticity",
           "elasticity_grid", "render_wtp_table"]

ELASTICITY_NOTE = "extension: computed by this toolkit, not published"


class FitStats(NamedTuple):
    rho2: float
    rho2_adj: float


class LrTest(NamedTuple):
    statistic: float
    p_value: float


def _finite_logliks(*lls) -> None:
    """PostestError "bad_loglik" unless each is a finite real (bool not)."""
    if not all(_real(ll) and math.isfinite(ll) for ll in lls):
        raise PostestError("bad_loglik", f"log likelihoods must be finite reals, got {lls!r}")


def fit_stats(ll_final: float, ll_null: float, k: int) -> FitStats:
    """rho2 = 1 - ll_final/ll_null; adjusted subtracts k, an integer >= 0,
    from ll_final first."""
    _finite_logliks(ll_final, ll_null)
    if ll_null >= 0:
        raise PostestError("bad_loglik", "ll_null must be negative")
    if ll_final > 0:
        raise PostestError("bad_loglik", "ll_final must be <= 0")
    _integer(PostestError, "bad_k", "k", k, 0)
    return FitStats(1.0 - ll_final / ll_null, 1.0 - (ll_final - k) / ll_null)


def _chi2_sf(x: float, df: int) -> float:
    """Chi-square upper tail Q(df/2, x/2) for integer df: with y = x/2 and
    a = (df % 2)/2, the sum over k < df//2 of exp(-y) y^(a+k) / Gamma(a+k+1),
    each term (at most 1) taken in logs, plus erfc(sqrt(y)) for odd df."""
    y, a = x / 2.0, 0.5 * (df % 2)
    if y == 0.0:
        return 1.0
    return min(1.0, math.fsum([math.erfc(math.sqrt(y))] * (df % 2) + [
        math.exp((a + k) * math.log(y) - y - math.lgamma(a + k + 1.0))
        for k in range(df // 2)]))


def lr_test(ll_restricted: float, ll_full: float, df: int) -> LrTest:
    """Likelihood-ratio test of nested models, chi-square upper tail; df is
    a whole number >= 1, an integral float included."""
    if not (_real(df) and float(df).is_integer() and df >= 1):
        raise PostestError("bad_df", f"df must be an integer >= 1, got {df!r}")
    _finite_logliks(ll_restricted, ll_full)
    if ll_full < ll_restricted:
        raise PostestError(
            "misordered_models",
            f"full model ll {ll_full} is below restricted ll {ll_restricted}")
    stat = 2.0 * (ll_full - ll_restricted)
    return LrTest(stat, _chi2_sf(stat, int(df)))


@dataclass(frozen=True)
class CostSlope:
    """Linearized cost coefficient: OLS of coefficient on centered yen."""

    mode: str
    slope: float
    intercept: float  # fitted coefficient at the mean yen; ~0 under effects coding
    points: tuple[tuple[float, float], ...]  # (yen, coefficient) per level
    r_squared: float


def _cost_attribute(schema: ExperimentSchema, mode: str) -> AttributeDef:
    """The unique design attribute of ``mode`` whose levels all carry values."""
    if mode not in schema.alternative_ids():
        raise PostestError("unknown_mode", f"no alternative named {mode!r}")
    numeric = [a for a in schema.design_attributes(mode)
               if a.levels and all(l.value is not None for l in a.levels)]
    if not numeric:
        raise PostestError("no_cost_attribute",
                           f"no numeric-valued attribute applies to {mode!r}")
    if len(numeric) > 1:
        names = ", ".join(a.name for a in numeric)
        raise PostestError("ambiguous_cost_attribute",
                           f"multiple numeric attributes apply to {mode!r}: {names}")
    return numeric[0]


def _level_coefficient(result: EstimationResult, attr: AttributeDef,
                       mode: str | None, label: str) -> float:
    # a shared attribute has one block, whichever alternative asks
    prefix = _block_prefix(attr, None if attr.scope == "shared" else mode)
    return result.coefficient(f"{prefix}:{label}")


def cost_slope(result: EstimationResult, schema: ExperimentSchema, mode: str) -> CostSlope:
    """OLS slope of estimated cost coefficients on their yen values.

    All levels enter, the base level via its implied coefficient; with
    effects coding the coefficients sum to zero, so the intercept is ~0.
    """
    attr = _cost_attribute(schema, mode)
    if attr.n_levels < 2:
        raise PostestError("too_few_levels",
                           f"{attr.name!r} needs >= 2 levels for a slope")
    yen = np.array([l.value for l in attr.levels], dtype=np.float64)
    if np.ptp(yen) == 0:
        raise PostestError("zero_cost_variance",
                           f"{attr.name!r} levels all share one value")
    coefs = np.array([_level_coefficient(result, attr, mode, l.label)
                      for l in attr.levels])
    x = yen - yen.mean()
    slope = float((x @ (coefs - coefs.mean())) / (x @ x))
    # centered fit: coef = intercept + slope * (yen - mean yen), so the
    # intercept is the fitted coefficient at the mean cost; effects-coded
    # blocks sum to zero, making it ~0 by construction
    intercept = float(coefs.mean())
    resid = coefs - (intercept + slope * x)
    ss_tot = float(((coefs - coefs.mean()) ** 2).sum())
    ss_res = float((resid ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    return CostSlope(mode=mode, slope=slope, intercept=intercept,
                     points=tuple(zip(yen.tolist(), coefs.tolist())),
                     r_squared=r_squared)


@dataclass(frozen=True)
class WtpEntry:
    attribute: str
    mode: str | None  # owning alternative; None for shared attributes
    levels: tuple[str, str] | None  # (to, from); None means binary doubling
    delta_utility: float
    cost_slope_mode: str
    wtp_yen: float


@dataclass(frozen=True)
class WtpReport:
    entries: tuple[WtpEntry, ...]

    def to_dict(self) -> dict:
        return {"wtp": [{
            "attribute": e.attribute,
            "mode": e.mode,
            "levels": list(e.levels) if e.levels else None,
            "delta_utility": e.delta_utility,
            "cost_slope_mode": e.cost_slope_mode,
            "wtp_yen": e.wtp_yen,
        } for e in self.entries]}


def wtp(result: EstimationResult, schema: ExperimentSchema, attribute: str,
        mode: str | None = None, slope_mode: str | None = None,
        levels: tuple[str, str] | None = None) -> WtpEntry:
    """Willingness to pay for one attribute change.

    Binary effects-coded attributes use delta = 2 * coefficient (a full swap
    of base for the named level); multi-level attributes need an explicit
    ``levels=(to, from)`` pair. ``slope_mode`` defaults to the attribute's own
    alternative; shared attributes fall back to the schema's first alternative
    (drone in the shipped schema, the reading that reproduces the published
    social-influence value).
    """
    attr = schema.attribute(attribute)
    if attr.scope in ("context", "demographic"):
        raise PostestError("not_a_design_attribute",
                           f"{attribute!r} does not describe the alternatives")
    if attr.scope == "shared":
        owner = None
    elif mode is not None:
        if not schema.applies(attr, mode):
            raise PostestError("unknown_mode",
                               f"{attribute!r} does not apply to {mode!r}")
        owner = mode
    elif len(attr.applies_to) == 1:
        owner = attr.applies_to[0]
    else:
        raise PostestError("ambiguous_mode",
                           f"{attribute!r} applies to several alternatives; pass mode")

    slope_owner = slope_mode or owner or schema.alternatives[0].id
    slope = cost_slope(result, schema, slope_owner)
    if attr.name == _cost_attribute(schema, slope_owner).name or \
            all(l.value is not None for l in attr.levels):
        raise PostestError("self_referential",
                           "WTP of the cost attribute against itself is undefined")

    if levels is not None:
        to_label, from_label = levels
        for lab in (to_label, from_label):
            if lab not in attr.level_index:
                raise PostestError("unknown_level",
                                   f"{attribute!r} has no level {lab!r}")
        delta = (_level_coefficient(result, attr, owner, to_label)
                 - _level_coefficient(result, attr, owner, from_label))
    elif attr.n_levels == 2:
        lead = attr.levels[0].label
        delta = 2.0 * _level_coefficient(result, attr, owner, lead)
        levels = (lead, attr.levels[-1].label)
    else:
        raise PostestError("ambiguous_levels",
                           f"{attribute!r} has {attr.n_levels} levels; pass levels=(to, from)")
    if slope.slope == 0.0:
        raise PostestError("zero_cost_slope",
                           f"the {slope_owner} cost slope is 0, so WTP is undefined")
    return WtpEntry(attribute=attribute, mode=owner, levels=levels,
                    delta_utility=float(delta), cost_slope_mode=slope_owner,
                    wtp_yen=float(-delta / slope.slope))


def wtp_report(result: EstimationResult, schema: ExperimentSchema) -> WtpReport:
    """The canonical four comparisons: next-day delivery for drone and
    motorcycle, doorstep drop-off for motorcycle, and the neighbor-acceptance
    shift from 30% to 70% (drone slope)."""
    entries = (
        wtp(result, schema, "delivery_date_drone"),
        wtp(result, schema, "delivery_date_motorcycle"),
        wtp(result, schema, "dropoff_motorcycle"),
        wtp(result, schema, "social_influence", slope_mode="drone",
            levels=("neighbor_70", "neighbor_30")),
    )
    return WtpReport(entries)


def render_wtp_table(report: WtpReport) -> str:
    """Aligned plain-text table of WTP entries."""
    header = ("attribute", "mode", "change", "delta_u", "slope_mode", "wtp_yen")
    rows = [header]
    for e in report.entries:
        change = f"{e.levels[0]} vs {e.levels[1]}" if e.levels else "swap"
        rows.append((e.attribute, e.mode or "shared", change,
                     f"{e.delta_utility:+.3f}", e.cost_slope_mode,
                     f"{e.wtp_yen:.1f}"))
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ElasticityEntry:
    mode: str
    price: float
    probability: float
    elasticity: float
    note: str = ELASTICITY_NOTE


def _check_price(price) -> None:
    """A price is a finite positive number of yen; NaN fails both bounds."""
    if not (_real(price) and 0.0 < price < math.inf):
        raise PostestError("bad_price", f"price must be finite and positive, got {price}")


def own_cost_elasticity(result: EstimationResult, schema: ExperimentSchema,
                        mode: str, price: float,
                        probability: float) -> ElasticityEntry:
    """Own-price point elasticity slope * price * (1 - P) with the
    linearized cost utility. A computed extension, flagged in the entry."""
    _check_price(price)
    if not (_real(probability) and 0.0 < probability < 1.0):
        raise PostestError("bad_probability",
                           f"baseline probability must be inside (0, 1), "
                           f"got {probability}")
    slope = cost_slope(result, schema, mode)
    value = slope.slope * price * (1.0 - probability)
    return ElasticityEntry(mode=mode, price=float(price),
                           probability=float(probability),
                           elasticity=float(value))


def elasticity_grid(slope: float, price0: float, prob0: float,
                    prices) -> list[tuple[float, float]]:
    """(price, probability) pairs along the linearized-cost logit curve
    anchored at (price0, prob0): only the own utility moves with price, so
    the log-odds are logit(prob0) + slope * (price - price0). Each
    probability is their logistic, taken through exp of a non-positive
    argument, so it is finite and in [0, 1] at any price and finite slope."""
    if not (_real(slope) and math.isfinite(slope)):
        raise PostestError("bad_slope", f"slope must be a finite number, got {slope!r}")
    _check_price(price0)
    if not (_real(prob0) and 0.0 < prob0 < 1.0):
        raise PostestError("bad_probability",
                           "anchor probability must be inside (0, 1)")
    logit0 = math.log(prob0 / (1.0 - prob0))
    out = []
    for p in prices:
        _check_price(p)
        log_odds = logit0 + slope * (float(p) - price0)
        e = math.exp(-abs(log_odds))
        out.append((float(p), 1.0 / (1.0 + e) if log_odds >= 0 else e / (1.0 + e)))
    return out
