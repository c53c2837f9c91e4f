"""The public surface of the package, pinned so that additions and removals
of exported names are deliberate and visible in review."""

import nestedrisk as nr


PUBLIC_NAMES = [
    "AsymptoticReport", "BandwidthSchedule", "ChainMatrices", "CompositeSpec",
    "ConfigError", "DimSignature", "Direction", "DistributionOracle",
    "DistributionSummary", "EstimateReport", "EtaChain", "EvaluationError",
    "HigherOrderFamily", "Histogram", "IdentityCheck", "KernelSpec", "LayerFn",
    "MeasureConfig", "MeasureParams", "Normal", "OptimalValueReport",
    "OuterAggregation", "PortfolioFamily", "PowerMaxForm", "ProductLaw",
    "QuadratureRule", "Reference", "ReplicationTable", "Sample",
    "SamplerConfig", "ScalarProblem", "SigmaEstimate", "SmoothingPlan",
    "SystemicLimitSummary", "SystemicSpec", "TwoPoint", "Uniform",
    "ValidationResult", "asymptotic_report", "asymptotics", "bandwidth",
    "chain_matrices", "check_strong_identity", "confidence_interval", "core",
    "default_bracket", "discrete_oracle", "errors", "estimate_empirical",
    "estimate_mixed", "estimators", "eval_exact_chain", "exact_limit_variance",
    "format_float", "freedman_diaconis_bins", "harness", "ks_distance",
    "limit_variance", "make_higher_order_family", "make_mean_semideviation",
    "make_portfolio_semideviation", "measures", "minimize_scalar",
    "normal_oracle", "optimal_value_clt_variance",
    "optimal_value_limit_covariance", "optimize", "parse_law",
    "parse_measure", "plugin_sigma", "product_oracle", "propagate_direction",
    "run_replications", "sample", "stack_specs", "summarize_distribution",
    "systemic_limit", "systemic_value", "two_point_oracle",
    "uniform_kernel_powermax", "uniform_oracle", "validate_spec",
]


def test_public_names_are_pinned():
    assert sorted(nr.__all__) == PUBLIC_NAMES
