from dataclasses import replace

import numpy as np
import pytest

from dce import (code_dataset, default_schema, ingest_choices, table4_labels_schema,
                 write_choices_csv)

from helpers import simulated_panel, small_labels_design


@pytest.fixture(scope="session")
def schema_default():
    return default_schema()


@pytest.fixture(scope="session")
def schema_labels():
    return table4_labels_schema()


@pytest.fixture(scope="session")
def design32():
    return small_labels_design(32, 4, seed=3)


@pytest.fixture(scope="session")
def panel50(design32):
    """50 respondents simulated without mixing from the published truth."""
    cfg, dataset, panel, truth = simulated_panel(design32, 50, seed=21)
    return {"cfg": cfg, "dataset": dataset, "panel": panel, "truth": truth}


@pytest.fixture(scope="session")
def mixed_panel40(design32):
    """40 respondents with normal ASC mixing, for MSL tests."""
    cfg, dataset, panel, truth = simulated_panel(
        design32, 40, seed=9, sds=(1.2, 1.0))
    return {"cfg": cfg, "dataset": dataset, "panel": panel, "truth": truth}


@pytest.fixture(scope="session")
def ragged_panel(panel50, tmp_path_factory):
    """panel50 made ragged and read back from CSV: the first respondent
    answered 6 of 8 tasks and the second respondent's first task lost one
    unchosen alternative."""
    dataset = panel50["dataset"]
    first, second, *rest = dataset.respondents
    obs = second.observations[0]
    dropped = next(a for a in obs.alt_values if a != obs.chosen)
    obs = replace(obs, alt_values={a: v for a, v in obs.alt_values.items()
                                   if a != dropped})
    respondents = (replace(first, observations=first.observations[:6]),
                   replace(second, observations=(obs, *second.observations[1:])),
                   *rest)
    path = tmp_path_factory.mktemp("ragged") / "choices.csv"
    write_choices_csv(replace(dataset, respondents=respondents), path)
    ingested = ingest_choices(path, dataset.schema)
    panel = code_dataset(ingested)
    assert np.bincount(panel.task_respondent)[0] == 6
    assert sorted(set(panel.task_sizes)) == [2, 3]
    return {"dataset": ingested, "panel": panel, "truth": panel50["truth"]}


@pytest.fixture
def rng():
    return np.random.default_rng(0)
