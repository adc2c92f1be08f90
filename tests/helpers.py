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


def select_fraction_oracle(schema, n_runs: int, seed: int, iters: int = 5000,
                           restarts: int = 5):
    """select_fraction by the per-proposal search: each proposal draws its
    (slot, run, run) in turn, swaps, and keeps the swap only if d-efficiency
    computed from the whole coded matrix rises."""
    from dce.design import (BlockedDesign, _balanced_levels, _coded_matrix, _d_efficiency,
                            _diagnostics, _oa_init, _profiles_from_assignment, _slots)

    slots = _slots(schema)
    best = None
    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        A = _oa_init(slots, n_runs, rng) if restart == 0 else None
        if A is None:
            A = np.column_stack([_balanced_levels(n_runs, attr.n_levels, rng)
                                 for _, attr in slots])
        X, ranges = _coded_matrix(A, slots)
        d_cur, _ = _d_efficiency(X)

        for _ in range(iters):
            s = int(rng.integers(len(slots)))
            i, j = rng.integers(n_runs, size=2)
            if A[i, s] == A[j, s]:
                continue
            a, b = ranges[s]
            old_i, old_j = X[i, a:b].copy(), X[j, a:b].copy()
            X[i, a:b], X[j, a:b] = old_j, old_i
            d_new, _ = _d_efficiency(X)
            if d_new > d_cur:
                d_cur = d_new
                A[i, s], A[j, s] = A[j, s], A[i, s]
            else:
                X[i, a:b], X[j, a:b] = old_i, old_j

        if best is None or d_cur > best[0]:
            best = (d_cur, restart, A.copy())

    return BlockedDesign(schema=schema, runs=_profiles_from_assignment(best[2], slots),
                         blocks=(tuple(range(n_runs)),), seed=seed,
                         diagnostics=_diagnostics(best[2], slots))


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
