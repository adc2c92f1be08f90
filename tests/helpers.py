"""Shared builders for the test suite."""

import numpy as np

from dce import (
    AlternativeDef,
    AttributeDef,
    ChoiceDataset,
    ExperimentSchema,
    Level,
    MixingSpec,
    Observation,
    RespondentRecord,
    SimConfig,
    build_parameter_index,
    code_dataset,
    select_fraction,
    simulate_dataset,
    table4_labels_schema,
    table4_mmnl,
)


def binary_asc_schema() -> ExperimentSchema:
    """Two alternatives, no attributes: the only parameter is one ASC."""
    return ExperimentSchema(
        name="binary_asc",
        alternatives=(
            AlternativeDef("b", label="B"),
            AlternativeDef("a", label="A", is_reference=True),
        ),
        attributes=(),
    )


def linear_schema() -> ExperimentSchema:
    """Alternative a carries a linear price; a linear wait is shared by a and b."""
    return ExperimentSchema(
        name="linear",
        alternatives=(AlternativeDef("a"), AlternativeDef("b", is_reference=True)),
        attributes=(
            AttributeDef("price", "alternative_specific",
                         (Level("lo", 1.5), Level("mid", 2.5), Level("hi", 4.0)),
                         applies_to=("a",), coding="linear"),
            AttributeDef("wait", "shared", (Level("short", 10.0), Level("long", 25.0)),
                         coding="linear"),
        ),
    )


def binary_asc_dataset(n_b: int = 75, n_a: int = 25,
                       n_respondents: int = 4) -> ChoiceDataset:
    """Dataset whose ASC-only MLE is ln(n_b / n_a) in closed form.

    Tasks are spread over respondents round-robin so no respondent is
    dropped by completeness screens and the panel has > 1 individual.
    """
    schema = binary_asc_schema()
    choices = ["b"] * n_b + ["a"] * n_a
    per = [[] for _ in range(n_respondents)]
    for t, chosen in enumerate(choices):
        per[t % n_respondents].append(
            Observation(task_id=f"t{t + 1}", block_id="1",
                        task_values={}, alt_values={"b": {}, "a": {}},
                        chosen=chosen))
    respondents = tuple(
        RespondentRecord(respondent_id=f"r{i + 1}", demographics={},
                         observations=tuple(obs))
        for i, obs in enumerate(per))
    return ChoiceDataset(schema=schema, respondents=respondents)


def small_labels_design(n_runs: int = 32, n_blocks: int = 4, seed: int = 3):
    """Quick fractional blocked design on the full schema."""
    from dce import block_design

    design = select_fraction(table4_labels_schema(), n_runs, seed=seed,
                             iters=300, restarts=2)
    return block_design(design, n_blocks, seed=seed)


def simulated_panel(design, n_respondents: int, seed: int,
                    sds=None, random_params=("asc_drone", "asc_truck")):
    """Simulate a dataset from published truth and code it.

    With sds=None the fixed part of the published mixed-model truth is
    used without mixing; otherwise the two ASC deviations get the given
    standard deviations. Returns (cfg, dataset, panel, truth).
    """
    schema = table4_labels_schema()
    fixture = table4_mmnl()
    k = len(build_parameter_index(schema).entries)
    if sds is None:
        mixing = None
        truth = np.asarray(fixture.params[:k], dtype=float)
    else:
        mixing = MixingSpec(random_params=tuple(random_params))
        truth = np.concatenate([fixture.params[:k], np.asarray(sds, float)])
    cfg = SimConfig(schema=schema, design=design, true_params=truth,
                    mixing=mixing, n_respondents=n_respondents, seed=seed)
    dataset = simulate_dataset(cfg)
    panel = code_dataset(dataset, build_parameter_index(schema))
    return cfg, dataset, panel, truth
