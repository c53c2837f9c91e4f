import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import nestedrisk as nr
from nestedrisk._rng import counter_uint64, derive_seed

from naive import mean_spec


SQ3 = np.sqrt(3.0)


# --- sampling -------------------------------------------------------------------

def test_sampler_determinism_and_prefix():
    cfg = nr.SamplerConfig(nr.Normal(0.0, 1.0), seed=42)
    a = nr.sample(cfg, 1000).data
    b = nr.sample(cfg, 1000).data
    assert np.array_equal(a, b)
    c = nr.sample(cfg, 400).data
    assert np.array_equal(a[:400], c)


def test_counter_stream_is_splitmix64():
    # the published splitmix64 outputs for seeds 0 and 1234567
    assert counter_uint64(0, 0, 3).tolist() == [
        0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
    assert counter_uint64(1234567, 0, 2).tolist() == [
        0x599ed017fb08fc85, 0x2c73f08458540fa5]


@pytest.mark.parametrize("law, digest", [
    (nr.Normal(10.0, SQ3),
     "b3eee8cfb3cbccdf5367495b4a79c899be06fa23a9958764c58edfd94d0c5385"),
    (nr.Uniform(-1.0, 2.0),
     "15b2ffe3516bd39c56e15c7a6de56937fc01af5e5ec2cfe2c94edd9ff3137962"),
    (nr.TwoPoint(0.0, 10.0, 0.3),
     "aac2b5112d3eadd2bd570aeeb1595f0532d4752369a51737e0c6c7f6a0923031"),
    (nr.ProductLaw((nr.Normal(10.0, 1.7), nr.Uniform(0.0, 1.0))),
     "b19d0bb25a43f02b4088cd7b76503127519b043ba39f0094fc98d1f3ada6984a"),
], ids=["normal", "uniform", "two-point", "product"])
def test_sample_bytes_are_pinned(law, digest):
    # the counter-RNG contract: these bytes hold across releases
    data = nr.sample(nr.SamplerConfig(law, seed=7), 20_000).data
    assert hashlib.sha256(data.tobytes()).hexdigest() == digest


def _traced_peak(fn) -> int:
    """Bytes traced by tracemalloc at fn's peak, above those live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_working_set_of_a_replication():
    # a replication's two array-heavy steps at n=20000, in bytes of the
    # sample (n doubles): the sampler keeps the counter buffer and one
    # scratch array, and the covariance centres its (3, n) block in place
    n = 20_000
    bound = {"sample": 2.5 * 8 * n, "report": 5.5 * 8 * n}
    cfg = nr.SamplerConfig(nr.Normal(10.0, SQ3), seed=1)
    spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0))
    s = nr.sample(cfg, n)
    e = nr.estimate_empirical(spec, s)
    nr.asymptotic_report(spec, s, e, level=0.95)
    peak = {"sample": _traced_peak(lambda: nr.sample(cfg, n)),
            "report": _traced_peak(lambda: nr.asymptotic_report(spec, s, e,
                                                                 level=0.95))}
    assert all(peak[k] <= bound[k] for k in bound), (peak, bound)


def test_standard_normal_seed42_bounds():
    # law-of-large-numbers bounds at the pinned seed, verified once
    cfg = nr.SamplerConfig(nr.Normal(0.0, 1.0), seed=42)
    x = nr.sample(cfg, 100_000).data[:, 0]
    assert abs(x.mean()) < 4.0 / np.sqrt(100_000)
    assert abs(x.std(ddof=1) - 1.0) < 0.02


def test_two_point_concentration():
    cfg = nr.SamplerConfig(nr.TwoPoint(0.0, 2.0, 0.5), seed=9)
    x = nr.sample(cfg, 100_000).data[:, 0]
    assert abs(x.mean() - 1.0) < 0.02
    assert set(np.unique(x)) == {0.0, 2.0}


def test_uniform_law_range_and_mean():
    cfg = nr.SamplerConfig(nr.Uniform(2.0, 6.0), seed=1)
    x = nr.sample(cfg, 50_000).data[:, 0]
    assert x.min() >= 2.0 and x.max() <= 6.0
    assert abs(x.mean() - 4.0) < 0.03


def test_product_law_coordinates_decorrelated():
    law = nr.ProductLaw((nr.Normal(0.0, 1.0), nr.Normal(0.0, 1.0)))
    x = nr.sample(nr.SamplerConfig(law, seed=3), 50_000).data
    r = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
    assert abs(r) < 0.02
    assert x.shape == (50_000, 2)


def test_law_validation():
    with pytest.raises(nr.ConfigError):
        nr.Normal(0.0, 0.0)
    with pytest.raises(nr.ConfigError):
        nr.Uniform(2.0, 2.0)
    with pytest.raises(nr.ConfigError):
        nr.TwoPoint(0.0, 1.0, 1.0)
    inner = nr.ProductLaw((nr.Normal(0.0, 1.0), nr.Uniform(0.0, 1.0)))
    with pytest.raises(nr.ConfigError, match="one-dimensional"):
        nr.ProductLaw((inner, nr.Normal(0.0, 1.0)))


def test_parse_law():
    law = nr.parse_law("normal:10,1.5")
    assert isinstance(law, nr.Normal) and law.mean == 10.0
    law = nr.parse_law("uniform:0,1*two_point:0,2,0.5")
    assert isinstance(law, nr.ProductLaw) and len(law.laws) == 2
    with pytest.raises(nr.ConfigError):
        nr.parse_law("cauchy:0,1")


# --- replications ------------------------------------------------------------------

def _mean_estimator(s):
    return nr.estimate_empirical(mean_spec(), s).value


def test_single_replication_matches_direct_call():
    law = nr.Normal(5.0, 2.0)
    tab = nr.run_replications(_mean_estimator, nr.SamplerConfig(law, 0), 64, 1,
                              seed=17)
    direct = _mean_estimator(nr.sample(nr.SamplerConfig(law, derive_seed(17, 0)), 64))
    assert np.array_equal(tab.estimates[0], direct)


@pytest.mark.parametrize("workers", [1, 4, 16])
def test_worker_count_does_not_change_results(workers):
    law = nr.Normal(0.0, 1.0)
    tab = nr.run_replications(_mean_estimator, nr.SamplerConfig(law, 0), 32, 40,
                              seed=5, workers=workers)
    ref = nr.run_replications(_mean_estimator, nr.SamplerConfig(law, 0), 32, 40,
                              seed=5, workers=1)
    assert tab.to_csv() == ref.to_csv()


def test_replication_error_carries_index():
    def broken(s):
        if s.data[0, 0] != np.inf:  # always true; fail deterministically
            raise nr.EvaluationError("boom", layer=2)

    with pytest.raises(nr.EvaluationError) as err:
        nr.run_replications(broken, nr.SamplerConfig(nr.Normal(0, 1), 0), 8, 3)
    assert "replication 0" in str(err.value)


def test_table_summary_against_reference():
    law = nr.Normal(0.0, 1.0)
    ref = nr.Reference(0.0, 1.0 / 256)
    tab = nr.run_replications(_mean_estimator, nr.SamplerConfig(law, 0), 256, 400,
                              seed=2)
    summary = nr.summarize_distribution(tab, ref)
    assert abs(summary.bias) < 4 / np.sqrt(256 * 400)
    assert summary.ks is not None and summary.ks < 0.08


def test_csv_format():
    law = nr.Normal(0.0, 1.0)
    tab = nr.run_replications(_mean_estimator, nr.SamplerConfig(law, 0), 16, 3,
                              seed=1)
    text = tab.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "replication,value"
    assert len(lines) == 4
    # floats carry 17 significant digits and round-trip
    val = lines[1].split(",")[1]
    assert float(val) == tab.estimates[0, 0]


def test_csv_vector_estimates_have_coord_columns():
    spec_a = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0))
    stacked = nr.stack_specs([spec_a, spec_a])
    law = nr.ProductLaw((nr.Normal(10.0, 1.0), nr.Normal(12.0, 1.0)))

    def estimator(s):
        return nr.estimate_empirical(stacked, s).value

    tab = nr.run_replications(estimator, nr.SamplerConfig(law, 0), 16, 3, seed=2)
    lines = tab.to_csv().strip().split("\n")
    assert lines[0] == "replication,value,coord1"
    assert len(lines[1].split(",")) == 3


# --- KS distance ---------------------------------------------------------------------

def test_ks_matches_scipy():
    rng = np.random.default_rng(4)
    x = rng.normal(0.3, 1.2, size=500)
    ours = nr.ks_distance(x, 0.0, 1.0)
    scipy_d = stats.kstest(x, "norm").statistic
    assert ours == pytest.approx(scipy_d, abs=1e-12)


def test_ks_synthetic_normal_table_small():
    # 1e4 exact standard-normal draws vs N(0,1): KS below 0.02
    cfg = nr.SamplerConfig(nr.Normal(0.0, 1.0), seed=8)
    x = nr.sample(cfg, 10_000).data[:, 0]
    assert nr.ks_distance(x, 0.0, 1.0) < 0.02


# --- summaries ----------------------------------------------------------------------

def _toy_table(values):
    est = np.asarray(values, dtype=float)[:, None]
    return nr.ReplicationTable(est, {"n": 0, "replications": len(values),
                                     "seed": 0, "law": "toy"})


def test_summary_degenerate_flag():
    tab = _toy_table(np.full(50, 3.0))
    out = nr.summarize_distribution(tab, nr.Reference(3.0, 1.0))
    assert out.degenerate and out.ks is None and out.histogram is None


def test_histogram_mass_and_reference_density():
    rng = np.random.default_rng(2)
    tab = _toy_table(rng.normal(size=4000))
    out = nr.summarize_distribution(tab, nr.Reference(0.0, 1.0), bins=40)
    widths = out.histogram.bin_right - out.histogram.bin_left
    assert float(np.sum(out.histogram.density * widths)) == pytest.approx(
        1.0, abs=1e-12)
    peak = np.argmax(out.histogram.reference_density)
    center = 0.5 * (out.histogram.bin_left[peak] + out.histogram.bin_right[peak])
    assert abs(center) < 0.5
    assert out.ks < 0.03


def test_histogram_csv_columns():
    rng = np.random.default_rng(3)
    tab = _toy_table(rng.normal(size=500))
    out = nr.summarize_distribution(tab, nr.Reference(0.0, 1.0), bins=12)
    lines = out.histogram.to_csv().strip().split("\n")
    assert lines[0] == "bin_left,bin_right,density,reference_density"
    assert len(lines) == 13


def test_freedman_diaconis_clamped():
    rng = np.random.default_rng(5)
    assert nr.freedman_diaconis_bins(rng.normal(size=20)) >= 10
    assert nr.freedman_diaconis_bins(rng.normal(size=10_000_000 // 100)) <= 100
    assert nr.freedman_diaconis_bins(np.full(100, 2.0)) == 10


def test_summary_requires_two_rows():
    tab = _toy_table([1.0])
    with pytest.raises(nr.ConfigError):
        nr.summarize_distribution(tab, nr.Reference(0.0, 1.0))


def test_summary_refuses_zero_bins():
    # the CLI refuses --bins 0 before it replicates; the library checks too
    with pytest.raises(nr.ConfigError, match="bins must be >= 1"):
        nr.summarize_distribution(_toy_table([1.0, 2.0]), nr.Reference(0.0, 1.0), 0)


# --- tracked (non-gating) bias-reduction observation -----------------------------------

def test_tracked_bias_reduction_of_kernel_smoothing(capsys):
    """At n=30 the kernel-smoothed optimal value shows less mean bias than
    the empirical one on the two-level tail measure. Tracked observation:
    values are printed for inspection, only sanity is asserted (no margin is
    guaranteed)."""
    fam = nr.make_higher_order_family(nr.MeasureParams(c=20.0, p=2.0))
    orc = nr.Normal(10.0, SQ3).oracle()
    prob = nr.ScalarProblem(fam, (4.0, 31.0), "exact-oracle", oracle=orc)
    theta = nr.minimize_scalar(prob).theta
    law = nr.Normal(10.0, SQ3)
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("uniform", 1, 2.0),
                            nr.BandwidthSchedule("silverman"))

    def emp(s):
        pb = nr.ScalarProblem(fam, nr.default_bracket(s, 20.0),
                              "empirical-sample", sample=s)
        return nr.minimize_scalar(pb, flat_check_grid=0).theta

    def kern(s):
        pb = nr.ScalarProblem(fam, nr.default_bracket(s, 20.0),
                              "mixed-plan", sample=s, plan=plan)
        return nr.minimize_scalar(pb, flat_check_grid=0).theta

    n, R = 30, 2000
    tab_e = nr.run_replications(emp, nr.SamplerConfig(law, 0), n, R, seed=71)
    tab_k = nr.run_replications(kern, nr.SamplerConfig(law, 0), n, R, seed=71)
    bias_e = tab_e.estimates[:, 0].mean() - theta
    bias_k = tab_k.estimates[:, 0].mean() - theta
    print(f"\n[tracked] n={n} R={R}: |bias| empirical={abs(bias_e):.4f} "
          f"kernel={abs(bias_k):.4f} (smaller is better)")
    assert np.isfinite(bias_e) and np.isfinite(bias_k)
