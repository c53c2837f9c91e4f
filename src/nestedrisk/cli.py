"""Command-line interface.

Subcommands: ``estimate`` (one-shot estimate plus confidence interval),
``simulate`` (replication study), ``compare`` (difference of two risks),
``systemic`` (component estimation plus aggregation), ``check-identity``
(bandwidth schedule validity), ``optimize`` (``simulate`` restricted to
higher_order measures: an optimal-value study).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .asymptotics import (asymptotic_report, confidence_interval,
                          exact_limit_variance)
from .core import eval_exact_chain
from .errors import ConfigError, EvaluationError
from .estimators import (BandwidthSchedule, KernelSpec, Sample, SmoothingPlan,
                         check_strong_identity, estimate_empirical, estimate_mixed)
from .harness import (ProductLaw, Reference, ReplicationTable, SamplerConfig,
                      dumps_json, parse_law, run_replications, sample,
                      summarize_distribution, summary_json)
from .measures import MeasureConfig, parse_measure, systemic_limit, systemic_value
from .optimize import (ScalarProblem, default_bracket, minimize_scalar,
                       optimal_value_clt_variance)

_KERNELS = ("uniform", "gaussian", "epanechnikov")


def _add_common(p: argparse.ArgumentParser, *, law2: bool = False) -> None:
    p.add_argument("--measure", required=True,
                   help="path to (or inline text of) a measure JSON document")
    p.add_argument("--law", required=True,
                   help="law spec, e.g. normal:10,1.7320508075688772; "
                        "'*' joins coordinates into a product law")
    if law2:
        p.add_argument("--measure2", default=None,
                       help="second measure (defaults to --measure)")
        p.add_argument("--law2", required=True, help="law of the second sample")
    p.add_argument("--n", type=int, default=200, help="sample size")
    p.add_argument("--seed", type=int, default=0, help="64-bit stream seed")
    p.add_argument("--kernel", choices=_KERNELS, default=None,
                   help="smooth with this kernel (omit for pure empirical)")
    p.add_argument("--bandwidth", default=None, help="bandwidth schedule (with "
                   "--kernel): 'silverman' (default) or 'power:a,gamma'")
    p.add_argument("--smooth-layers", default=None, help="with --kernel: comma "
                   "list of layer indices to smooth (default 2)")
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")


def _add_replication(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="json",
                   dest="fmt", help="csv: estimates table; json: summary")
    p.add_argument("--replications", type=int, default=1000)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--bins", type=int, default=None, help="histogram bin count")
    p.add_argument("--hist-out", default=None,
                   help="also write the histogram CSV to this path ('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nestedrisk",
        description="Nested composite risk functionals: estimation, "
                    "asymptotics, and seeded simulation studies.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="one-shot estimate with CI")
    _add_common(p)
    p.add_argument("--level", type=float, default=None,
                   help="confidence level (default 0.95; not for a systemic measure)")

    p = sub.add_parser("simulate", help="replication study for one measure")
    _add_common(p)
    _add_replication(p)

    p = sub.add_parser("compare", help="difference of two risks")
    _add_common(p, law2=True)
    _add_replication(p)

    p = sub.add_parser("systemic", help="systemic aggregation study")
    _add_common(p)
    _add_replication(p)
    p.add_argument("--limit-samples", type=int, default=100_000,
                   help="draws for the sampled limit distribution")

    p = sub.add_parser("check-identity", help="bandwidth schedule validity")
    p.add_argument("--kernel", choices=_KERNELS, required=True)
    p.add_argument("--bandwidth", required=True,
                   help="'silverman' or 'power:a,gamma'")
    p.add_argument("--order", type=float, default=2.0,
                   help="moment order p of the composition")
    p.add_argument("--dimension", type=int, default=1)
    p.add_argument("--out", default="-")

    p = sub.add_parser("optimize", help="optimal-value study (two-level measures)")
    _add_common(p)
    _add_replication(p)

    return ap


def _parse_bandwidth(text: str) -> BandwidthSchedule:
    if text == "silverman":
        return BandwidthSchedule("silverman")
    if text.startswith("power:"):
        try:
            a, gamma = (float(v) for v in text[len("power:"):].split(","))
        except ValueError as exc:
            raise ConfigError(f"bad power bandwidth {text!r}") from exc
        return BandwidthSchedule("power", scale=a, exponent=gamma)
    raise ConfigError(f"unknown bandwidth schedule {text!r}")


def _plan_from_args(args, m: int) -> SmoothingPlan | None:
    if args.kernel is None:
        if args.bandwidth is not None or args.smooth_layers is not None:
            raise ConfigError("--bandwidth and --smooth-layers need --kernel")
        return None
    text = "2" if args.smooth_layers is None else args.smooth_layers
    try:
        layers = frozenset(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --smooth-layers {text!r}") from exc
    kernel = KernelSpec(args.kernel, m, moment_order=2.0)
    return SmoothingPlan(layers, kernel, _parse_bandwidth(
        "silverman" if args.bandwidth is None else args.bandwidth))


def _write(path: str, text: str) -> None:
    """Write text to path, '-' meaning stdout."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _problem(family, c: float, s: Sample, plan) -> ScalarProblem:
    """The empirical (plan None) or mixed optimal-value problem on s."""
    return ScalarProblem(family, default_bracket(s, c),
                         "empirical-sample" if plan is None else "mixed-plan",
                         sample=s, plan=plan)


def _scalar_build(mcfg: MeasureConfig):
    """The family (higher_order) or spec of a scalar pipeline measure."""
    built = mcfg.build()
    if mcfg.kind not in ("higher_order", "mean_semideviation",
                         "portfolio_semideviation"):
        raise ConfigError(f"measure kind {mcfg.kind!r} is not a scalar pipeline")
    if mcfg.kind == "portfolio_semideviation" and mcfg.u is None:
        raise ConfigError("portfolio measure needs an allocation 'u'")
    return built


def _estimator(mcfg: MeasureConfig, plan):
    """Sample -> float: the optimal value (no flat check) of a higher_order
    family, the chain value of any other scalar measure."""
    built = _scalar_build(mcfg)
    if mcfg.kind == "higher_order":
        c = mcfg.params.c
        return lambda s: minimize_scalar(_problem(built, c, s, plan),
                                         flat_check_grid=0).theta
    if plan is None:
        return lambda s: float(estimate_empirical(built, s).value[0])
    return lambda s: float(estimate_mixed(built, s, plan).value[0])


def _exact(mcfg: MeasureConfig, law):
    """(value, limit variance) of a scalar measure under the law's
    quadrature oracle."""
    built = _scalar_build(mcfg)
    m = 1 if mcfg.kind == "higher_order" else built.m
    if law.dimension != m:    # before the rule, whose size grows like 100^m
        raise ConfigError(
            f"law dimension {law.dimension} does not match spec dimension {m}")
    oracle = law.oracle()
    if mcfg.kind == "higher_order":
        mean, var = law.moments()
        sd = np.sqrt(var)
        prob = ScalarProblem(built, (float(mean - 6 * sd), float(mean + 12 * sd)),
                             "exact-oracle", oracle=oracle)
        rep = minimize_scalar(prob, flat_check_grid=0)
        return rep.theta, optimal_value_clt_variance(prob, None, rep.u_hat)
    value = float(eval_exact_chain(built, oracle).value[0])
    return value, float(exact_limit_variance(built, oracle)[0, 0])


def _per_column(estimators):
    """Sample -> list: estimator i applied to column i."""
    return lambda s: [est(Sample(s.data[:, i])) for i, est in enumerate(estimators)]


def _systemic_pieces(mcfg: MeasureConfig, law):
    """(component configs, component laws, the aggregation) of a systemic
    measure on a law with one coordinate per component."""
    if mcfg.kind != "systemic":
        raise ConfigError("the systemic command needs a systemic measure")
    ell = len(mcfg.components)
    if law.dimension != ell:
        raise ConfigError(
            f"systemic law must have one coordinate per component ({ell})")
    return mcfg.components, getattr(law, "laws", (law,)), mcfg.systemic


def cmd_estimate(args) -> int:
    mcfg = parse_measure(args.measure)
    law = parse_law(args.law)
    systemic = mcfg.kind == "systemic"
    if systemic and args.level is not None:
        raise ConfigError("a systemic estimate prints no interval: drop --level")
    level = 0.95 if args.level is None else args.level
    plan = _plan_from_args(args, 1 if systemic else law.dimension)
    cfg = SamplerConfig(law, args.seed)
    s = sample(cfg, args.n)
    config = {"measure": mcfg.to_json(), "law": repr(law), "n": s.n,
              "seed": args.seed}
    if mcfg.kind == "higher_order":
        prob = _problem(mcfg.build(), mcfg.params.c, s, plan)
        rep = minimize_scalar(prob, flat_check_grid=0)
        v = optimal_value_clt_variance(prob, s, rep.u_hat)
        (lo, hi), = confidence_interval(rep.theta, v, s.n, level)
        doc = {"value": rep.theta, "u_hat": rep.u_hat,
               "limit_variance": v, "level": level,
               "interval": [lo, hi],
               "boundary": rep.boundary,
               "config": config}
    elif systemic:
        comps, _, spec = _systemic_pieces(mcfg, law)
        values = _per_column([_estimator(c, plan) for c in comps])(s)
        doc = {"value": systemic_value(values, spec),
               "components": values,
               "config": config}
    else:
        spec = _scalar_build(mcfg)
        chain = estimate_mixed(spec, s, plan) if plan is not None \
            else estimate_empirical(spec, s)
        arep = asymptotic_report(spec, s, chain, level=level)
        doc = {"value": chain.value.tolist(),
               "limit_covariance": arep.limit_cov.tolist(),
               "level": level,
               "interval": [list(iv) for iv in arep.intervals],
               "config": config}
    _write(args.out, dumps_json(doc))
    return 0


def _emit_table(args, table: ReplicationTable, reference: Reference,
                extra: dict) -> None:
    summary = None if args.fmt == "csv" and not args.hist_out \
        else summarize_distribution(table, reference, args.bins)
    if args.fmt == "csv":
        text = table.to_csv()
    else:
        doc = summary_json(summary, table.config)
        doc.update(extra)
        text = dumps_json(doc)
    _write(args.out, text)
    if args.hist_out and summary.histogram is not None:
        _write(args.hist_out, summary.histogram.to_csv())


def cmd_simulate(args) -> int:
    """The ``simulate`` and ``optimize`` subcommands; ``optimize`` accepts
    only higher_order measures."""
    mcfg = parse_measure(args.measure)
    if args.command == "optimize" and mcfg.kind != "higher_order":
        raise ConfigError("the optimize command needs a higher_order measure")
    law = parse_law(args.law)
    plan = _plan_from_args(args, law.dimension)
    exact, v = _exact(mcfg, law)
    reference = Reference(exact, v / args.n)
    cfg = SamplerConfig(law, args.seed)
    table = run_replications(_estimator(mcfg, plan), cfg, args.n,
                             args.replications, workers=args.workers,
                             label={"measure": mcfg.kind})
    _emit_table(args, table, reference,
                {"exact_value": exact, "limit_variance": v})
    return 0


def cmd_compare(args) -> int:
    m1 = parse_measure(args.measure)
    m2 = parse_measure(args.measure2) if args.measure2 else m1
    l1, l2 = parse_law(args.law), parse_law(args.law2)
    if l1.dimension != 1 or l2.dimension != 1:
        raise ConfigError("compare expects scalar laws")
    plan = _plan_from_args(args, 1)
    exact1, v1 = _exact(m1, l1)
    exact2, v2 = _exact(m2, l2)
    columns = _per_column([_estimator(m1, plan), _estimator(m2, plan)])

    def diff(s: Sample) -> float:
        a, b = columns(s)
        return a - b

    joint = ProductLaw((l1, l2))
    reference = Reference(exact1 - exact2, (v1 + v2) / args.n)
    table = run_replications(diff, SamplerConfig(joint, args.seed), args.n,
                             args.replications, workers=args.workers,
                             label={"measure": "difference"})
    _emit_table(args, table, reference,
                {"exact_difference": exact1 - exact2,
                 "limit_variance": v1 + v2})
    return 0


def cmd_systemic(args) -> int:
    mcfg = parse_measure(args.measure)
    law = parse_law(args.law)
    comps, laws, spec = _systemic_pieces(mcfg, law)
    plan = _plan_from_args(args, 1)

    values, variances = zip(*(_exact(c, l) for c, l in zip(comps, laws)))
    exact_components = np.array(values)
    exact_sys = systemic_value(exact_components, spec)

    # delta-method reference variance through the aggregation's directional
    # derivative at the exact component vector (independent components)
    lim = systemic_limit(spec, np.diag(variances), exact_components,
                         args.limit_samples, args.seed + 1)

    columns = _per_column([_estimator(c, plan) for c in comps])

    def sys_est(s: Sample) -> float:
        return systemic_value(columns(s), spec)

    reference = Reference(exact_sys, lim.variance / args.n)
    table = run_replications(sys_est, SamplerConfig(law, args.seed), args.n,
                             args.replications, workers=args.workers,
                             label={"measure": "systemic"})
    _emit_table(args, table, reference,
                {"exact_value": exact_sys,
                 "exact_components": exact_components.tolist(),
                 "limit_quantiles": {str(k): v for k, v in lim.quantiles.items()},
                 "limit_variance": lim.variance})
    return 0


def cmd_check_identity(args) -> int:
    kernel = KernelSpec(args.kernel, args.dimension, moment_order=args.order)
    schedule = _parse_bandwidth(args.bandwidth)
    check = check_strong_identity(schedule)
    doc = {"passes": check.passes, "s2b_ok": check.s2b_ok, "rule": check.rule,
           "gamma": check.gamma, "exponent_identity": check.exponent_identity,
           "exponent_s2b": check.exponent_s2b, "detail": check.detail,
           "kernel": {"family": kernel.family, "dimension": kernel.dimension,
                      "m1": kernel.m1, "mp": kernel.mp}}
    _write(args.out, dumps_json(doc))
    return 0


_COMMANDS = {
    "estimate": cmd_estimate,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "systemic": cmd_systemic,
    "check-identity": cmd_check_identity,
    "optimize": cmd_simulate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "n", 1) < 1:
            raise ConfigError("sample size must be >= 1")
        if getattr(args, "bins", None) is not None:
            # checked before any replication runs; only a summary reads it
            if args.fmt == "csv" and not args.hist_out:
                raise ConfigError("--bins needs a summary: --format json or --hist-out")
            if args.bins < 1:
                raise ConfigError("histogram bins must be >= 1")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
