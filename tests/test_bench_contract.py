"""The names and trace fields that the benchmark tracer reads from ``dce``.

``benchmarks/spans.py`` patches the names in its ``BOUNDARIES`` table and
reads ``trace.config["threads"]`` from each MMNL fit. These tests load that
file without changing it, so that dropping a name it needs fails here
rather than only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

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
