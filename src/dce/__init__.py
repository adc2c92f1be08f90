"""Discrete choice experiment toolkit.

Designs stated-choice experiments (balanced, near-orthogonal fractional
factorials with blocking), simulates synthetic respondents, estimates
multinomial and panel mixed logit models (the latter by maximum simulated
likelihood with Halton draws), and derives willingness-to-pay, elasticity,
and fit reports from the estimates.
"""

__version__ = "0.1.0"

from .dataset import (ChoiceDataset, CodedPanel, Observation, RespondentRecord,
                      ScreeningReport, ScreeningRules, code_dataset,
                      ingest_choices, screen_responses, write_choices_csv)
from .design import (BlockedDesign, DesignDiagnostics, Profile, block_design,
                     design_diagnostics, full_factorial, read_design_csv,
                     select_fraction, within_block_deviation, write_design_csv)
from .errors import (DatasetError, DceError, DesignError, EstimationError,
                     PostestError, SchemaError, SimulationError)
from .fixtures import (builtin_fixture, builtin_schema, default_schema,
                       table3_demographic_weights, table4_labels_schema,
                       table4_mmnl, table4_mnl)
from .mmnl import (MixingSpec, SimulatedLikelihoodTrace, estimate_mmnl,
                   make_draws, mmnl_predict, msl_gradient, msl_loglik)
from .mnl import (check_identification, estimate_mnl, mnl_gradient,
                  mnl_loglik, mnl_probabilities)
from .numerics import (HaltonConfig, OptimizerOptions, OptimResult,
                       finite_diff_grad, halton, halton_matrix,
                       hessian_from_grad, inv_normal_cdf, normal_draws,
                       trust_newton_minimize)
from .postest import (CostSlope, ElasticityEntry, FitStats,
                      LrTest, WtpEntry, WtpReport, cost_slope, elasticity_grid,
                      fit_stats, lr_test, own_cost_elasticity, render_wtp_table,
                      wtp, wtp_report)
from .results import (EstimationResult, MixingInfo, implied_base_levels,
                      render_table, two_sided_p)
from .schema import (AlternativeDef, AttributeDef, ExperimentSchema, Level,
                     ParameterIndex, ParamInfo, build_parameter_index,
                     effects_code, validate_schema)
from .simulate import (RecoveryReport, RecoveryRow, SimConfig,
                       recovery_experiment, simulate_dataset)

__all__ = [
    "__version__",
    # schema
    "Level", "AlternativeDef", "AttributeDef", "ExperimentSchema",
    "ParamInfo", "ParameterIndex", "build_parameter_index", "effects_code",
    "validate_schema",
    # errors
    "DceError", "SchemaError", "DesignError", "DatasetError",
    "EstimationError", "SimulationError", "PostestError",
    # numerics
    "HaltonConfig", "OptimizerOptions", "OptimResult", "finite_diff_grad",
    "halton", "halton_matrix", "hessian_from_grad", "inv_normal_cdf",
    "normal_draws", "trust_newton_minimize",
    # design
    "Profile", "DesignDiagnostics", "BlockedDesign", "full_factorial",
    "select_fraction", "block_design", "design_diagnostics",
    "within_block_deviation", "read_design_csv", "write_design_csv",
    # dataset
    "Observation", "RespondentRecord", "ChoiceDataset", "CodedPanel",
    "ScreeningRules", "ScreeningReport", "ingest_choices", "screen_responses",
    "code_dataset", "write_choices_csv",
    # estimation
    "mnl_probabilities", "mnl_loglik", "mnl_gradient", "check_identification",
    "estimate_mnl", "MixingSpec", "SimulatedLikelihoodTrace", "make_draws",
    "msl_loglik", "msl_gradient", "estimate_mmnl", "mmnl_predict",
    # results
    "EstimationResult", "MixingInfo", "two_sided_p", "implied_base_levels",
    "render_table",
    # postest
    "FitStats", "LrTest", "CostSlope", "WtpEntry", "WtpReport",
    "ElasticityEntry", "fit_stats", "lr_test",
    "cost_slope", "wtp", "wtp_report", "own_cost_elasticity",
    "elasticity_grid", "render_wtp_table",
    # simulation
    "SimConfig", "simulate_dataset", "RecoveryRow", "RecoveryReport",
    "recovery_experiment",
    # fixtures
    "default_schema", "table4_labels_schema", "table3_demographic_weights",
    "table4_mnl", "table4_mmnl", "builtin_fixture", "builtin_schema",
]
