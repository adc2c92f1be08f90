"""The names, calls and trace fields that the benchmark reads from ``dce``.

``benchmarks/spans.py`` patches the names in its ``BOUNDARIES`` table and
reads ``trace.config["threads"]`` from each MMNL fit, and
``benchmarks/worker.py`` times ``msl_loglik`` and ``msl_gradient`` on draws
from ``make_draws``, passing ``draws=`` and ``n_threads=``. These tests load
the tracer without changing it and make the worker's calls as it makes
them, so that dropping a name or keyword the benchmark needs fails here
rather than only in a traced benchmark run.
"""

import importlib
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

import dce
from dce import HaltonConfig, MixingSpec, estimate_mmnl

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_name_resolves():
    for mod_name, names in load_spans().BOUNDARIES.items():
        module = importlib.import_module(mod_name)
        for name in names:
            assert hasattr(module, name), f"{mod_name}.{name}"


def test_mmnl_trace_records_an_integer_thread_count(mixed_panel40):
    mixing = MixingSpec(random_params=("asc_drone", "asc_truck"),
                        halton=HaltonConfig(n_draws=20))
    result = estimate_mmnl(mixed_panel40["panel"], mixing)
    assert type(result.trace.config["threads"]) is int


@pytest.mark.parametrize("threads", [None, os.cpu_count() or 1])
@pytest.mark.parametrize("name", ["msl_loglik", "msl_gradient"])
def test_worker_timing_calls_return_the_plain_calls_values(mixed_panel40, name, threads):
    panel = mixed_panel40["panel"]
    mixing = MixingSpec(random_params=("asc_drone", "asc_truck"),
                        halton=HaltonConfig(n_draws=20))
    params = np.concatenate([mixed_panel40["truth"][:panel.X.shape[1]], [1.2, 0.8]])
    fn = getattr(dce, name)
    draws = dce.make_draws(mixing, panel.n_respondents)
    got = fn(params, panel, mixing, draws=draws, n_threads=threads)
    assert np.asarray(got).tobytes() == np.asarray(fn(params, panel, mixing)).tobytes()
