"""The public surface of the package, pinned so that additions and removals
of exported names are deliberate and visible in review, and the README's
python block, run as written."""

import re
from pathlib import Path

import nestedrisk as nr


PUBLIC_NAMES = [
    "AsymptoticReport", "BandwidthSchedule", "CompositeSpec", "ConfigError",
    "DistributionSummary", "EtaChain", "EvaluationError", "HigherOrderFamily", "Histogram", "IdentityCheck",
    "KernelSpec", "LayerFn", "MeasureConfig", "MeasureParams", "Normal",
    "OptimalValueReport", "OuterAggregation", "PortfolioFamily",
    "PowerMaxForm", "ProductLaw", "QuadratureRule", "Reference",
    "ReplicationTable", "Sample", "SamplerConfig", "ScalarProblem",
    "SmoothingPlan", "SystemicLimitSummary", "SystemicSpec", "TwoPoint",
    "Uniform", "asymptotic_report", "asymptotics",
    "bandwidth", "check_strong_identity", "confidence_interval", "core",
    "default_bracket", "errors", "estimate_empirical", "estimate_mixed",
    "estimators", "eval_exact_chain", "exact_limit_variance", "format_float",
    "freedman_diaconis_bins", "harness", "ks_distance",
    "make_higher_order_family", "make_mean_semideviation",
    "make_portfolio_semideviation", "measures", "minimize_scalar",
    "optimal_value_clt_variance", "optimal_value_limit_covariance", "optimize",
    "parse_law", "parse_measure", "propagate_direction", "run_replications",
    "sample", "stack_specs", "summarize_distribution", "systemic_limit",
    "systemic_value", "uniform_kernel_powermax",
]


def test_public_names_are_pinned():
    assert sorted(nr.__all__) == PUBLIC_NAMES


def test_readme_python_block_runs_and_prints_its_commented_values(capsys):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    # a print commented "# 14.5048 15.5163" prints those values to 4 decimals
    for line, out in zip(prints, printed):
        want = re.findall(r"-?\d+\.\d+", line.partition("#")[2])
        got = re.findall(r"-?\d+\.\d+", out)[:len(want)]
        assert [f"{float(g):.{len(w.split('.')[1])}f}" for g, w in zip(got, want)] == want
