"""nestedrisk: estimation and asymptotics for nested composite risk functionals.

A library for evaluating nested compositions of expectations against known
laws, estimating them from samples with empirical and kernel-smoothed
plug-in estimators, computing delta-method limit covariances and confidence
intervals, and validating the normal limits by seeded Monte Carlo.
"""

from .asymptotics import (AsymptoticReport, asymptotic_report, confidence_interval,
                          exact_limit_variance, propagate_direction)
from .core import (CompositeSpec, EtaChain, LayerFn, PowerMaxForm, QuadratureRule,
                   eval_exact_chain)
from .errors import ConfigError, EvaluationError
from .estimators import (BandwidthSchedule, IdentityCheck, KernelSpec, Sample,
                         SmoothingPlan, bandwidth, check_strong_identity,
                         estimate_empirical, estimate_mixed)
from .harness import (DistributionSummary, Histogram, Normal, ProductLaw,
                      Reference, ReplicationTable, SamplerConfig, TwoPoint,
                      Uniform, format_float, freedman_diaconis_bins,
                      ks_distance, parse_law, run_replications, sample,
                      summarize_distribution)
from .measures import (HigherOrderFamily, MeasureConfig, MeasureParams,
                       PortfolioFamily, SystemicLimitSummary, SystemicSpec,
                       make_higher_order_family, make_mean_semideviation,
                       make_portfolio_semideviation, parse_measure, stack_specs,
                       systemic_limit)
from .optimize import (OptimalValueReport, ScalarProblem, default_bracket,
                       minimize_scalar, optimal_value_clt_variance,
                       optimal_value_limit_covariance)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
