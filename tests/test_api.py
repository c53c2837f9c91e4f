"""The public surface of the package, pinned so that additions and removals
of exported names are deliberate and visible in review, and the README's
python block, run as written."""

import dataclasses
import inspect
import re
from pathlib import Path

import nestedrisk as nr


PUBLIC_NAMES = [
    "AsymptoticReport", "BandwidthSchedule", "CompositeSpec", "ConfigError",
    "DistributionSummary", "EtaChain", "EvaluationError", "HigherOrderFamily", "Histogram", "IdentityCheck",
    "KernelSpec", "LayerFn", "MeasureConfig", "MeasureParams", "Normal",
    "OptimalValueReport", "PortfolioFamily",
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
]

# The values a caller can set: the fields of each public dataclass that its
# constructor takes, and the parameters of each public function (and of
# harness.dumps_json, which the CLI and benchmark write through).
SETTABLE_FIELDS = {
    "AsymptoticReport": "limit_cov intervals",
    "BandwidthSchedule": "rule scale exponent",
    "CompositeSpec": "m dims layers",
    "DistributionSummary": "mean bias std ks degenerate reference histogram",
    "EtaChain": "eta",
    "HigherOrderFamily": "c p",
    "Histogram": "bin_left bin_right density reference_density",
    "IdentityCheck": "passes exponent_identity detail",
    "KernelSpec": "family dimension moment_order",
    "LayerFn": "evaluator jacobian_eta powermax",
    "MeasureConfig": "doc built",
    "MeasureParams": "kappa p c",
    "Normal": "mean std",
    "OptimalValueReport": "u_hat theta iterations boundary",
    "PortfolioFamily": "kappa p m",
    "PowerMaxForm": "power gap unit_slope tail_objective",
    "ProductLaw": "laws",
    "QuadratureRule": "nodes weights",
    "Reference": "mean variance",
    "ReplicationTable": "estimates config",
    "Sample": "data",
    "SamplerConfig": "law seed",
    "ScalarProblem": "family bracket objective_source oracle sample plan",
    "SmoothingPlan": "J kernel schedule convolution_nodes",
    "SystemicLimitSummary": "quantiles variance",
    "SystemicSpec": "weights kappa p",
    "TwoPoint": "x1 x2 w",
    "Uniform": "a b",
}

PARAMETERS = {
    "asymptotic_report": "spec sample estimate level",
    "bandwidth": "schedule n sigma_hat",
    "check_strong_identity": "schedule",
    "confidence_interval": "value limit_cov n level",
    "default_bracket": "sample c",
    "estimate_empirical": "spec sample",
    "estimate_mixed": "spec sample plan",
    "eval_exact_chain": "spec oracle",
    "exact_limit_variance": "spec oracle",
    "format_float": "x",
    "freedman_diaconis_bins": "values",
    "ks_distance": "values mean variance",
    "make_higher_order_family": "params",
    "make_mean_semideviation": "params",
    "make_portfolio_semideviation": "params m",
    "minimize_scalar": "problem tol flat_check_grid",
    "optimal_value_clt_variance": "problem sample u_hat",
    "optimal_value_limit_covariance": "problems u_hats sample",
    "parse_law": "text",
    "parse_measure": "doc",
    "propagate_direction": "spec chain oracle direction",
    "run_replications": "estimator config n replications seed workers label",
    "sample": "config n",
    "stack_specs": "components",
    "summarize_distribution": "table reference bins coord",
    "systemic_limit": "spec limit_cov value samples seed",
    "harness.dumps_json": "obj",
}


def test_public_names_are_pinned():
    assert sorted(nr.__all__) == PUBLIC_NAMES


def test_settable_fields_and_parameters_are_pinned():
    fields = {name: " ".join(f.name for f in dataclasses.fields(obj) if f.init)
              for name in PUBLIC_NAMES
              if dataclasses.is_dataclass(obj := getattr(nr, name))}
    assert fields == SETTABLE_FIELDS
    params = {name: " ".join(inspect.signature(obj).parameters)
              for name in PUBLIC_NAMES
              if inspect.isfunction(obj := getattr(nr, name))}
    params["harness.dumps_json"] = " ".join(
        inspect.signature(nr.harness.dumps_json).parameters)
    assert params == PARAMETERS


def test_a_measure_config_holds_only_what_its_kind_reads():
    # a config is its echo and what its kind built; the echo holds only
    # keys the kind reads, so no config carries another kind's defaults
    for doc, built in [
            ({"kind": "mean_semideviation"}, nr.CompositeSpec),
            ({"kind": "higher_order"}, nr.HigherOrderFamily),
            ({"kind": "portfolio_semideviation", "m": 2}, nr.PortfolioFamily),
            ({"kind": "portfolio_semideviation", "m": 2, "u": [0.5, 0.5]},
             nr.CompositeSpec)]:
        cfg = nr.parse_measure(doc)
        assert isinstance(cfg.built, built)
        assert doc.keys() <= cfg.doc.keys() <= nr.measures._KEYS[cfg.kind]
    cfg = nr.parse_measure({"kind": "systemic", "components": [{"kind": "higher_order"}]})
    assert cfg.doc.keys() == nr.measures._KEYS["systemic"]
    comps, spec = cfg.built
    assert isinstance(spec, nr.SystemicSpec)
    assert [c.doc for c in comps] == cfg.doc["components"]


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
