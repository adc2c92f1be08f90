"""Synthetic respondents for recovery and oracle testing.

Choices follow the random-utility model exactly: systematic utility from a
known parameter vector, plus iid standard Gumbel noise via the inverse CDF,
plus optional per-respondent normal deviations on the random coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import ChoiceDataset, CodedPanel, Observation, RespondentRecord, code_dataset
from .design import BlockedDesign
from .errors import DceError, SimulationError, _integer
from .fixtures import table3_demographic_weights
from .mmnl import MixingSpec, estimate_mmnl
from .mnl import estimate_mnl
from .results import EstimationResult
from .schema import ExperimentSchema, build_parameter_index

__all__ = ["SimConfig", "simulate_dataset", "RecoveryRow", "RecoveryReport",
           "recovery_experiment"]


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to generate one synthetic dataset.

    ``true_params`` aligns to ``build_parameter_index(schema, random)`` where
    ``random`` comes from ``mixing`` (sd entries last). ``block_assignment``
    is "balanced" (respondent i gets block i mod B; the default, chosen for
    cleaner recovery tests) or "uniform" (each respondent draws a block
    uniformly, matching how survey respondents were described as assigned).
    ``demographic_weights`` maps attribute name -> level label -> probability;
    attributes left unspecified fall back to the published sample proportions
    when the level labels match, else to uniform sampling.
    """

    schema: ExperimentSchema
    design: BlockedDesign
    true_params: np.ndarray
    mixing: MixingSpec | None = None
    n_respondents: int = 528
    seed: int = 0
    demographic_weights: dict[str, dict[str, float]] | None = None
    block_assignment: str = "balanced"

    def __post_init__(self):
        _integer(SimulationError, "bad_respondent_count", "n_respondents", self.n_respondents, 1)
        _integer(SimulationError, "bad_seed", "seed", self.seed, 0)
        if self.block_assignment not in ("balanced", "uniform"):
            raise SimulationError(
                "bad_block_assignment",
                f"block_assignment must be balanced or uniform, "
                f"got {self.block_assignment!r}")
        object.__setattr__(
            self, "true_params",
            np.asarray(self.true_params, dtype=np.float64).reshape(-1))


def _resolve_weights(schema: ExperimentSchema,
                     overrides: dict[str, dict[str, float]] | None):
    """Cumulative sampling tables per demographic attribute, in schema order."""
    defaults = table3_demographic_weights()
    tables = []
    for attr in schema.demographic_attributes():
        labels = attr.level_labels()
        weights = None
        if overrides and attr.name in overrides:
            weights = overrides[attr.name]
        elif attr.name in defaults and set(defaults[attr.name]) == set(labels):
            weights = defaults[attr.name]
        if weights is None:
            probs = np.full(len(labels), 1.0 / len(labels))
        else:
            if set(weights) != set(labels):
                raise SimulationError(
                    "bad_weights",
                    f"weights for {attr.name!r} must cover exactly its levels")
            probs = np.array([float(weights[l]) for l in labels])
            # published proportions are rounded; tolerate that, then renormalize
            if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-3:
                raise SimulationError(
                    "bad_weights",
                    f"weights for {attr.name!r} must be >= 0 and sum to 1")
            probs = probs / probs.sum()
        tables.append((attr.csv_column, labels, np.cumsum(probs)))
    return tables


def _rng(seed: int, respondent: int, purpose: int) -> np.random.Generator:
    # one substream per (respondent, purpose): adding respondents or toggling
    # mixing/assignment options never reshuffles anyone else's draws
    return np.random.default_rng(np.random.SeedSequence([seed, respondent, purpose]))


_DEMOGRAPHICS, _BLOCK, _DEVIATIONS, _GUMBEL = range(4)


def simulate_dataset(cfg: SimConfig) -> ChoiceDataset:
    """Generate a ChoiceDataset from known parameters, deterministic in seed.

    Each respondent draws, each from its own stream, a vector of uniforms
    for its demographic profile, a block, under mixing deviations on the
    random coefficients, and one (task x alternative) matrix of uniforms for
    standard Gumbel noise. ``CodedPanel.from_dataset`` codes each distinct
    (profile, block) pair once, as a respondent with the block's tasks of
    all alternatives. A task's utility is its rows times the fixed
    coefficients plus its random columns times the respondent's deviations,
    each product stacked by task, and the choice is the argmax of utility
    plus noise over each task's row. Respondents who make the same choice on
    the same run and block share one task record.
    """
    schema = cfg.schema
    random_params = cfg.mixing.random_params if cfg.mixing else ()
    index = build_parameter_index(schema, tuple(random_params))
    if cfg.true_params.shape[0] != index.n_params:
        raise SimulationError(
            "parameter_mismatch",
            f"true_params has {cfg.true_params.shape[0]} entries, "
            f"index {index.schema_name!r} needs {index.n_params}")
    k = index.n_fixed
    mean = cfg.true_params[:k]
    sds = cfg.true_params[k:]
    rp = index.positions(random_params) if random_params else np.zeros(0, dtype=np.intp)

    alt_ids = schema.alternative_ids()
    demo_tables = _resolve_weights(schema, cfg.demographic_weights)
    n_blocks = cfg.design.n_blocks

    # one task record per (run, block label, choice), shared by every
    # respondent who makes it; its dicts are copies, not the design's own
    run_values = [(dict(run.context), {a: dict(run.alt_levels[a]) for a in alt_ids})
                  for run in cfg.design.runs]
    tasks: dict[tuple[int, str, str], Observation] = {}

    def observation(run_idx: int, block_id: str, chosen: str) -> Observation:
        key = (run_idx, block_id, chosen)
        if key not in tasks:
            tasks[key] = Observation(f"run{run_idx + 1}", block_id, *run_values[run_idx], chosen)
        return tasks[key]

    # each respondent's demographic uniforms, one per attribute, then each
    # attribute's labels looked up for all respondents at once
    u = np.array([_rng(cfg.seed, i, _DEMOGRAPHICS).random(len(demo_tables))
                  for i in range(cfg.n_respondents)])
    columns = [(column, [labels[j] for j in np.searchsorted(cum, u[:, c], side="right")])
               for c, (column, labels, cum) in enumerate(demo_tables)]
    people = []
    for i in range(cfg.n_respondents):
        demographics = {column: labels[i] for column, labels in columns}
        if cfg.block_assignment == "balanced":
            block = i % n_blocks
        else:
            block = int(_rng(cfg.seed, i, _BLOCK).integers(n_blocks))
        people.append((demographics, tuple(sorted(demographics.items())), block))

    # each distinct (profile, block) pair, coded once as a respondent with
    # the block's tasks; not through code_dataset, whose calls from this
    # module benchmarks/spans.py times as the coding layer
    pairs = dict.fromkeys((profile, block) for _, profile, block in people)
    coded = CodedPanel.from_dataset(ChoiceDataset(schema, tuple(
        RespondentRecord(str(t), dict(profile),
                         tuple(observation(r, "", alt_ids[0]) for r in cfg.design.blocks[block]))
        for t, (profile, block) in enumerate(pairs))))
    # (task, alternative, column) per pair. Products stacked by task are one
    # product per task, so each utility's bits do not depend on the block size
    rows = coded.X.reshape(-1, len(alt_ids), k)
    ends = np.cumsum([len(cfg.design.blocks[block]) for _, block in pairs])
    utilities = {pair: (x @ mean, x[:, :, rp])
                 for pair, x in zip(pairs, np.split(rows, ends[:-1]))}

    respondents = []
    for i, (demographics, profile, block) in enumerate(people):
        base, x_rp = utilities[profile, block]
        v = base
        if len(rp):
            v = base + x_rp @ (_rng(cfg.seed, i, _DEVIATIONS).standard_normal(len(rp)) * sds)
        eps = -np.log(-np.log(_rng(cfg.seed, i, _GUMBEL).random(base.shape)))
        label = str(block + 1)
        respondents.append(RespondentRecord(
            respondent_id=f"r{i + 1}",
            demographics=demographics,
            observations=tuple(observation(r, label, alt_ids[c]) for r, c in
                               zip(cfg.design.blocks[block], np.argmax(v + eps, axis=1)))))
    return ChoiceDataset(schema, tuple(respondents))


@dataclass(frozen=True)
class RecoveryRow:
    name: str
    true: float
    estimated: float
    std_error: float | None
    abs_z: float  # |estimated - true| / std_error; nan without a std_error


@dataclass(frozen=True)
class RecoveryReport:
    estimator: str
    seed: int
    rows: tuple[RecoveryRow, ...]
    correlation: float  # true vs estimated over fixed parameters
    result: EstimationResult = field(repr=False)

    @property
    def share_within(self) -> float:
        """Share of parameters with |z| <= 2 among those with std_errors."""
        zs = [r.abs_z for r in self.rows if r.std_error is not None]
        if not zs:
            return float("nan")
        return float(np.mean([z <= 2.0 for z in zs]))


def recovery_experiment(cfg: SimConfig, estimator: str) -> RecoveryReport:
    """Simulate, re-estimate, and compare against the generating truth."""
    if estimator not in ("mnl", "mmnl"):
        raise SimulationError("bad_estimator",
                              f"estimator must be mnl or mmnl, got {estimator!r}")
    if estimator == "mmnl" and cfg.mixing is None:
        raise SimulationError("bad_estimator",
                              "mmnl recovery needs a mixing spec in the config")
    dataset = simulate_dataset(cfg)
    panel = code_dataset(dataset)
    try:
        if estimator == "mnl":
            result = estimate_mnl(panel)
        else:
            result = estimate_mmnl(panel, cfg.mixing)
    except DceError as e:
        raise type(e)(e.code, f"{e.message} [simulation seed {cfg.seed}]") from e

    # an MNL fit of a mixed truth covers its fixed part only
    k = result.index.n_fixed
    truth = cfg.true_params.copy()
    truth[k:] = np.abs(truth[k:])  # estimates report |sd|
    est = result.params
    rows = []
    for j, name in enumerate(result.index.names()):
        se = None if result.std_errors is None else float(result.std_errors[j])
        z = abs(est[j] - truth[j]) / se if se else float("nan")
        rows.append(RecoveryRow(name, float(truth[j]), float(est[j]), se, z))
    # nan when either vector is constant (e.g. truth all zeros)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = float(np.corrcoef(truth[:k], est[:k])[0, 1])
    return RecoveryReport(estimator=estimator, seed=cfg.seed, rows=tuple(rows),
                          correlation=corr, result=result)
