import json

import numpy as np
import pytest
from scipy.special import ndtri

import nestedrisk as nr
from nestedrisk._rng import derive_seed
from nestedrisk import cli
from nestedrisk.cli import main


SQRT3 = "1.7320508075688772"
SQRT5 = "2.23606797749979"


@pytest.fixture
def msd_json(tmp_path):
    path = tmp_path / "msd.json"
    path.write_text('{"kind": "mean_semideviation", "kappa": 0.5, "p": 2.0}')
    return str(path)


@pytest.fixture
def ho_json(tmp_path):
    path = tmp_path / "ho.json"
    path.write_text('{"kind": "higher_order", "c": 20.0, "p": 2.0}')
    return str(path)


@pytest.fixture
def sys_json(tmp_path):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({
        "kind": "systemic", "weights": [0.5, 0.5],
        "outer": {"kind": "mean_semideviation", "kappa": 0.5, "p": 2.0},
        "components": [{"kind": "higher_order", "c": 20.0, "p": 2.0},
                       {"kind": "higher_order", "c": 20.0, "p": 2.0}]}))
    return str(path)


def run_cli(args):
    return main(args)


def test_estimate_json_output(msd_json, tmp_path, capsys):
    out = tmp_path / "est.json"
    code = run_cli(["estimate", "--measure", msd_json,
                    "--law", f"normal:10,{SQRT3}", "--n", "200", "--seed", "7",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["value"][0] == pytest.approx(10.61, abs=0.5)
    lo, hi = doc["interval"][0]
    assert lo < doc["value"][0] < hi
    # floats serialized with 17 significant digits round-trip exactly
    raw = out.read_text()
    assert f'{doc["value"][0]:.17g}' in raw


def test_estimate_higher_order_with_kernel(ho_json, tmp_path):
    out = tmp_path / "ho_est.json"
    code = run_cli(["estimate", "--measure", ho_json,
                    "--law", f"normal:10,{SQRT3}", "--n", "200", "--seed", "7",
                    "--kernel", "uniform", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "u_hat" in doc and doc["value"] > doc["u_hat"]


def test_simulate_csv_and_histogram(msd_json, tmp_path):
    out = tmp_path / "sim.csv"
    hist = tmp_path / "hist.csv"
    code = run_cli(["simulate", "--measure", msd_json,
                    "--law", f"normal:10,{SQRT3}", "--n", "64",
                    "--replications", "30", "--seed", "3",
                    "--format", "csv", "--out", str(out),
                    "--hist-out", str(hist), "--bins", "12"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "replication,value"
    assert len(lines) == 31
    hlines = hist.read_text().strip().split("\n")
    assert hlines[0] == "bin_left,bin_right,density,reference_density"
    assert len(hlines) == 13


def test_simulate_summary_json(msd_json, tmp_path):
    out = tmp_path / "sim.json"
    code = run_cli(["simulate", "--measure", msd_json,
                    "--law", f"normal:10,{SQRT3}", "--n", "64",
                    "--replications", "40", "--seed", "3",
                    "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    for key in ("mean", "bias", "std", "ks", "reference", "config"):
        assert key in doc
    assert doc["reference"]["variance"] > 0
    assert doc["config"]["n"] == 64


def test_simulate_smoothed_rows_are_estimate_mixed(msd_json, tmp_path):
    out = tmp_path / "sim.csv"
    code = run_cli(["simulate", "--measure", msd_json,
                    "--law", f"normal:10,{SQRT3}", "--n", "64",
                    "--replications", "3", "--seed", "3",
                    "--kernel", "gaussian", "--format", "csv", "--out", str(out)])
    assert code == 0
    rows = [float(line.split(",")[1]) for line in out.read_text().split("\n")[1:-1]]
    spec = nr.make_mean_semideviation(nr.MeasureParams(kappa=0.5, p=2.0))
    plan = nr.SmoothingPlan(frozenset({2}), nr.KernelSpec("gaussian", 1, 2.0),
                            nr.BandwidthSchedule("silverman"))
    cfgs = [nr.SamplerConfig(nr.Normal(10.0, float(SQRT3)), derive_seed(3, r))
            for r in range(3)]
    assert rows == [nr.estimate_mixed(spec, nr.sample(cfg, 64), plan).value[0]
                    for cfg in cfgs]


def test_summary_json_and_histogram_share_one_summary(msd_json, tmp_path,
                                                      monkeypatch):
    import nestedrisk.cli as cli
    original, calls = cli.summarize_distribution, []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "summarize_distribution", counting)
    out, hist = tmp_path / "sim.json", tmp_path / "hist.csv"
    code = run_cli(["simulate", "--measure", msd_json,
                    "--law", f"normal:10,{SQRT3}", "--n", "64",
                    "--replications", "30", "--seed", "3",
                    "--format", "json", "--out", str(out),
                    "--hist-out", str(hist), "--bins", "12"])
    assert code == 0
    assert len(calls) == 1
    assert "mean" in json.loads(out.read_text())
    assert len(hist.read_text().strip().split("\n")) == 13


def test_compare_runs(ho_json, tmp_path):
    out = tmp_path / "cmp.json"
    code = run_cli(["compare", "--measure", ho_json,
                    "--law", f"normal:10,{SQRT3}",
                    "--law2", f"normal:20,{SQRT5}",
                    "--n", "100", "--replications", "25", "--seed", "5",
                    "--kernel", "uniform", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["exact_difference"] == pytest.approx(-11.6052, abs=1e-3)
    assert doc["mean"] < 0


def test_systemic_runs(sys_json, tmp_path):
    out = tmp_path / "sys.json"
    code = run_cli(["systemic", "--measure", sys_json,
                    "--law", f"normal:10,{SQRT3}*normal:20,{SQRT5}",
                    "--n", "100", "--replications", "25", "--seed", "5",
                    "--kernel", "uniform", "--bandwidth", "power:20.6,0.51",
                    "--limit-samples", "20000", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["exact_value"] == pytest.approx(23.3704, abs=2e-3)
    assert "limit_quantiles" in doc
    # the limit is the library's, from the exact component values and variances
    fam = nr.make_higher_order_family(nr.MeasureParams(c=20.0, p=2.0))
    thetas, variances = [], []
    for law in (nr.Normal(10.0, float(SQRT3)), nr.Normal(20.0, float(SQRT5))):
        mean, var = law.moments()
        sd = np.sqrt(var)
        prob = nr.ScalarProblem(fam, (float(mean - 6 * sd), float(mean + 12 * sd)),
                                "exact-oracle", oracle=law.oracle())
        rep = nr.minimize_scalar(prob)
        thetas.append(rep.theta)
        variances.append(nr.optimal_value_clt_variance(prob, None, rep.u_hat))
    spec = nr.SystemicSpec((0.5, 0.5), kappa=0.5, p=2.0)
    lim = nr.systemic_limit(spec, np.diag(variances), np.array(thetas), 20000, 6)
    assert doc["exact_components"] == thetas
    assert doc["limit_variance"] == lim.variance


# the empirical solve at n=1000 has c=20 <= sqrt(n), an interior optimum
@pytest.mark.parametrize("kernel, n", [([], 1000), (["--kernel", "uniform"], 200)],
                         ids=["empirical", "uniform"])
def test_estimate_higher_order_interval_is_the_normal_interval(kernel, n, ho_json,
                                                                tmp_path):
    out = tmp_path / "ho_est.json"
    code = run_cli(["estimate", "--measure", ho_json, "--law", f"normal:10,{SQRT3}",
                    "--n", str(n), "--seed", "7", "--out", str(out)] + kernel)
    assert code == 0
    doc = json.loads(out.read_text())
    half = float(ndtri(0.975)) * np.sqrt(doc["limit_variance"] / n)
    assert doc["interval"] == [doc["value"] - half, doc["value"] + half]


def test_estimate_higher_order_at_the_sample_max_exits_3(ho_json, capsys):
    # at n=200, c=20 > sqrt(n): the empirical optimum is the sample maximum,
    # the solver stops just above it, the tail above u_hat is empty and the
    # gradient of u + c eta^(1/2) is singular at eta = 0
    code = run_cli(["estimate", "--measure", ho_json, "--law", f"normal:10,{SQRT3}",
                    "--n", "200", "--seed", "7"])
    assert code == 3
    err = capsys.readouterr().err
    assert "singular gradient" in err and "layer=1" in err


def test_estimate_on_systemic_measure(sys_json, tmp_path):
    out = tmp_path / "est_sys.json"
    code = run_cli(["estimate", "--measure", sys_json,
                    "--law", f"normal:10,{SQRT3}*normal:20,{SQRT5}",
                    "--n", "200", "--seed", "7", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    law = nr.ProductLaw((nr.Normal(10.0, float(SQRT3)), nr.Normal(20.0, float(SQRT5))))
    s = nr.sample(nr.SamplerConfig(law, 7), 200)
    fam = nr.make_higher_order_family(nr.MeasureParams(c=20.0, p=2.0))
    thetas = []
    for i in range(2):
        col = nr.Sample(s.data[:, i])
        prob = nr.ScalarProblem(fam, nr.default_bracket(col, 20.0),
                                "empirical-sample", sample=col)
        thetas.append(nr.minimize_scalar(prob, flat_check_grid=0).theta)
    spec = nr.SystemicSpec((0.5, 0.5), kappa=0.5, p=2.0)
    assert doc["components"] == thetas
    assert doc["value"] == spec.aggregate(thetas)


def test_optimize_runs(ho_json, tmp_path):
    out = tmp_path / "opt.json"
    code = run_cli(["optimize", "--measure", ho_json,
                    "--law", f"normal:10,{SQRT3}", "--n", "100",
                    "--replications", "20", "--seed", "2",
                    "--kernel", "uniform", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["exact_value"] == pytest.approx(15.5163, abs=1e-3)


def test_check_identity_outputs(tmp_path):
    out = tmp_path / "id.json"
    code = run_cli(["check-identity", "--kernel", "epanechnikov",
                    "--bandwidth", "power:1,0.6", "--order", "2",
                    "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passes"] is True
    assert sorted(doc) == ["detail", "exponent_identity", "kernel", "passes"]
    code = run_cli(["check-identity", "--kernel", "uniform",
                    "--bandwidth", "silverman", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passes"] is False
    assert doc["detail"].endswith("(silverman: gamma = 1/5 < 1/2)")


def test_config_error_exit_code(msd_json, capsys):
    code = run_cli(["estimate", "--measure", '{"kind": "bogus"}',
                    "--law", "normal:0,1"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_measure_file_exit_code(tmp_path, capsys):
    path = str(tmp_path / "nofile.json")
    code = run_cli(["estimate", "--measure", path, "--law", "normal:0,1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and path in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_covariance_exit_code(msd_json, capsys):
    # layer-2 values near 1e200 overflow the plug-in covariance
    code = run_cli(["estimate", "--measure", msd_json,
                    "--law", "normal:0,1e100"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "layer=2" in err


def test_overflowing_exact_variance_exit_code(capsys):
    # the reference variance E[(eta - X)_+^200] overflows: no summary with
    # an infinite variance is printed
    code = run_cli(["simulate", "--measure", '{"kind": "mean_semideviation", "p": 100}',
                    "--law", "normal:0,10", "--replications", "4"])
    assert code == 3
    out = capsys.readouterr()
    assert "numerical failure" in out.err and "layer=2" in out.err
    assert out.out == ""


def test_numerical_error_exit_code(msd_json, capsys):
    # constant sample makes the silverman bandwidth degenerate
    code = run_cli(["estimate", "--measure", msd_json,
                    "--law", "two_point:3,3,0.5", "--n", "16", "--seed", "1",
                    "--kernel", "uniform"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_bad_law_exit_code(msd_json):
    for law in ("weibull:1,2", "normal:a,b"):
        assert run_cli(["estimate", "--measure", msd_json, "--law", law]) == 2


@pytest.mark.parametrize("measure", ["msd_json", "ho_json"])
@pytest.mark.parametrize("level", ["0", "1.5"])
def test_bad_level_exit_code(measure, level, request, capsys):
    code = run_cli(["estimate", "--measure", request.getfixturevalue(measure),
                    "--law", f"normal:10,{SQRT3}", "--level", level])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


_LAW = f"normal:10,{SQRT3}"
_LAWS = f"normal:10,{SQRT3}*normal:20,{SQRT5}"
_MISMATCH = json.dumps({"kind": "systemic", "weights": [0.5, 0.5, 0.0],
                        "components": [{"kind": "higher_order"}] * 2})
_NO_ALLOCATION = '{"kind": "portfolio_semideviation", "m": 2}'
_PORTFOLIO = '{"kind": "portfolio_semideviation", "m": 2, "u": [1, 0, 0]}'
_PORTFOLIO_P1 = '{"kind": "portfolio_semideviation", "p": 1, "u": [1]}'
_PORTFOLIO_M0 = '{"kind": "portfolio_semideviation", "m": 0, "u": []}'
_PORTFOLIO_NAN = '{"kind": "portfolio_semideviation", "m": 2, "u": [NaN, 1]}'
_SYSTEMIC_NAN = json.dumps({"kind": "systemic", "weights": [float("nan"), 1.0],
                            "components": [{"kind": "higher_order"}] * 2})
# four factors: the law's tensor rule would hold 100^4 nodes
_LAW4 = "*".join(["normal:0,1"] * 4)
_PORTFOLIO4 = '{"kind": "portfolio_semideviation", "m": 4, "u": [0.25, 0.25, 0.25, 0.25]}'


def _systemic(outer):
    return json.dumps({"kind": "systemic", "outer": outer,
                       "components": [{"kind": "higher_order"}]})


@pytest.mark.parametrize("argv", [
    ["estimate", "--measure", "msd", "--law", _LAW, "--kernel", "uniform",
     "--bandwidth", "power:1"],
    ["estimate", "--measure", "msd", "--law", _LAW, "--kernel", "uniform",
     "--bandwidth", "scott"],
    ["estimate", "--measure", "msd", "--law", _LAW, "--kernel", "uniform",
     "--smooth-layers", "a"],
    ["compare", "--measure", "msd", "--law", _LAWS, "--law2", _LAW],
    ["systemic", "--measure", "msd", "--law", _LAWS],
    ["systemic", "--measure", "sys", "--law", _LAW],
    ["optimize", "--measure", "msd", "--law", _LAW],
    ["estimate", "--measure", _MISMATCH, "--law", _LAWS],
    ["systemic", "--measure", _MISMATCH, "--law", _LAWS],
    ["estimate", "--measure", "ho", "--law", _LAW, "--kernel", "uniform",
     "--smooth-layers", "3"],
    ["simulate", "--measure", "msd", "--law", _LAW, "--hist-out", "-", "--bins", "0"],
    ["estimate", "--measure", _NO_ALLOCATION, "--law", _LAWS],
    ["simulate", "--measure", "sys", "--law", _LAWS],
    ["simulate", "--measure", "ho", "--law", _LAWS],
    ["optimize", "--measure", "ho", "--law", _LAWS],
    ["estimate", "--measure", "ho", "--law", _LAWS],
    ["simulate", "--measure", "msd", "--law", _LAW, "--n", "0"],
    ["optimize", "--measure", "ho", "--law", _LAW, "--n", "0"],
    ["compare", "--measure", "msd", "--law", _LAW, "--law2", _LAW, "--n", "0"],
    ["systemic", "--measure", "sys", "--law", _LAWS, "--n", "0"],
    ["estimate", "--measure", _systemic("linear"), "--law", _LAW],
    ["estimate", "--measure", _PORTFOLIO, "--law", _LAWS],
    ["estimate", "--measure", _PORTFOLIO_P1, "--law", _LAW],
    ["estimate", "--measure", _PORTFOLIO_M0, "--law", _LAW],
    ["estimate", "--measure", _systemic({"kind": "max"}), "--law", _LAW],
    ["estimate", "--measure", _systemic({"kind": "mean_semideviation", "kappa": 2}),
     "--law", _LAW],
    ["estimate", "--measure",
     _systemic({"kind": "mean_semideviation", "p": 0.5}), "--law", _LAW],
    ["estimate", "--measure", '{"kind": "higher_order",', "--law", _LAW],
    ["simulate", "--measure", "msd", "--law", _LAW, "--replications", "0"],
    ["estimate", "--measure", _PORTFOLIO_NAN, "--law", _LAWS],
    ["estimate", "--measure", _SYSTEMIC_NAN, "--law", _LAWS],
    ["estimate", "--measure", "msd", "--law", _LAW, "--kernel", "uniform",
     "--bandwidth", "power:-1,0.6"],
    ["estimate", "--measure", "msd", "--law", _LAW, "--kernel", "uniform",
     "--bandwidth", "power:1,-0.6"],
    ["estimate", "--measure", "msd", "--law", _LAW, "--kernel", "uniform",
     "--smooth-layers", "0"],
    ["check-identity", "--kernel", "uniform", "--bandwidth", "silverman",
     "--dimension", "0"],
    ["check-identity", "--kernel", "uniform", "--bandwidth", "silverman",
     "--order", "0.5"],
    *[["check-identity", "--kernel", "gaussian", "--bandwidth", "power:1,0.6",
       "--order", order, "--dimension", dim]
      for dim in ("1", "2") for order in ("320", "400")],
    ["simulate", "--measure", "ho", "--law", _LAW4],
    ["simulate", "--measure", _PORTFOLIO4, "--law", _LAW4],
    ["simulate", "--measure", "msd", "--law", _LAW4],
    ["estimate", "--measure", "msd", "--law", "*".join(["normal:0,1"] * 5),
     "--kernel", "gaussian"],
    ["estimate", "--measure", '{"kind": "higher_order", "C": 5.0}', "--law", _LAW],
    ["systemic", "--measure", json.dumps({"kind": "systemic", "wieghts": [0.9, 0.1],
                                          "components": [{"kind": "higher_order"}] * 2}),
     "--law", _LAWS],
    ["systemic", "--measure", _systemic({"kind": "linear", "kappa": 0.5}), "--law", _LAW],
    ["estimate", "--measure", "msd", "--law", _LAW, "--bandwidth", "power:1,0.6"],
    ["simulate", "--measure", "msd", "--law", _LAW, "--smooth-layers", "1"],
    ["estimate", "--measure", "sys", "--law", _LAWS, "--level", "0.95"],
    ["simulate", "--measure", "msd", "--law", _LAW, "--format", "csv",
     "--hist-out", "-", "--bins", "0"],
    # a value of the wrong type is refused, not converted
    ["estimate", "--measure", '{"kind": "portfolio_semideviation", "m": 2.7, '
     '"u": [0.5, 0.5]}', "--law", _LAWS],
    ["estimate", "--measure", '{"kind": "portfolio_semideviation", "m": 2, "u": "12"}',
     "--law", _LAWS],
    ["systemic", "--measure", json.dumps({"kind": "systemic", "weights": "1",
                                          "components": [{"kind": "higher_order"}]}),
     "--law", _LAW],
    ["estimate", "--measure", '{"kind": "higher_order", "c": "20"}', "--law", _LAW],
    ["estimate", "--measure", '{"kind": "mean_semideviation", "kappa": true}',
     "--law", _LAW],
], ids=["power-bandwidth-arity", "unknown-bandwidth", "smooth-layers-text",
        "compare-product-law", "systemic-scalar-measure", "systemic-law-dimension",
        "optimize-scalar-chain", "estimate-weights-length",
        "systemic-weights-length", "smooth-layers-beyond-k+1", "zero-bins",
        "portfolio-without-allocation", "simulate-systemic-measure",
        "simulate-higher-order-product-law", "optimize-higher-order-product-law",
        "estimate-higher-order-product-law", "simulate-n-0", "optimize-n-0",
        "compare-n-0", "systemic-n-0", "outer-not-an-object",
        "portfolio-allocation-length", "portfolio-p-1", "portfolio-m-0",
        "unknown-outer-kind", "outer-kappa-2", "outer-p-below-1",
        "inline-json-unparsed", "zero-replications", "portfolio-nan-allocation",
        "systemic-nan-weight",
        "negative-bandwidth-scale", "negative-bandwidth-exponent",
        "smooth-layer-0", "kernel-dimension-0", "moment-order-below-1",
        "gaussian-moment-order-320", "gaussian-moment-order-400",
        "gaussian-2d-moment-order-320", "gaussian-2d-moment-order-400",
        "simulate-higher-order-4-factor-law", "simulate-4-asset-portfolio",
        "simulate-msd-4-factor-law", "gaussian-kernel-5-coordinates",
        "measure-key-C", "measure-key-wieghts", "linear-outer-kappa",
        "bandwidth-without-kernel", "smooth-layers-without-kernel",
        "systemic-estimate-level", "csv-zero-bins", "portfolio-m-not-an-integer",
        "portfolio-u-text", "systemic-weights-text", "higher-order-c-text",
        "msd-kappa-bool"])
def test_config_error_paths_exit_2(argv, msd_json, ho_json, sys_json, capsys):
    paths = {"msd": msd_json, "ho": ho_json, "sys": sys_json}
    argv = [paths.get(a, a) for a in argv]
    if argv[0] not in ("estimate", "check-identity") and "--replications" not in argv:
        argv += ["--replications", "4"]
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error: ")


@pytest.mark.parametrize("argv, refused_by", [
    (["simulate", "--measure", "msd", "--law", _LAW, "--level", "0.9"], "argparse"),
    (["optimize", "--measure", "ho", "--law", _LAW, "--level", "0.9"], "argparse"),
    (["estimate", "--measure", "msd", "--law", _LAW, "--format", "csv"], "argparse"),
    (["simulate", "--measure", "msd", "--law", _LAW, "--format", "csv", "--bins", "5",
      "--replications", "4"], "library"),
    (["simulate", "--measure", "msd", "--law", _LAW, "--bins", "5",
      "--replications", "4"], "library"),
], ids=["simulate-level", "optimize-level", "estimate-format", "csv-bins", "json-bins"])
def test_a_flag_the_command_does_not_read_exits_2(argv, refused_by, msd_json, ho_json,
                                                   capsys):
    # argparse refuses it: estimate prints no table, a study no interval;
    # --bins shapes only the histogram file: a JSON summary prints no
    # histogram, so without --hist-out the library refuses it
    paths = {"msd": msd_json, "ho": ho_json}
    argv = [paths.get(a, a) for a in argv]
    if refused_by == "argparse":
        with pytest.raises(SystemExit) as info:
            run_cli(argv)
        assert info.value.code == 2
    else:
        assert run_cli(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("configuration error: --bins")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_bins_are_checked_before_any_replication(fmt, msd_json, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(cli, "run_replications", unreachable)
    assert run_cli(["simulate", "--measure", msd_json, "--law", _LAW, "--format", fmt,
                    "--hist-out", "-", "--bins", "0", "--replications", "4"]) == 2


_ONE_COMPONENT = _systemic({"kind": "linear"})


def test_one_component_systemic_on_a_scalar_law(ho_json, tmp_path, capsys):
    # the coordinate law of a one-component systemic measure is the law itself
    sys_out, sim = tmp_path / "sys.json", tmp_path / "sim.json"
    assert run_cli(["estimate", "--measure", _ONE_COMPONENT,
                    "--law", "normal:10,1.7"]) == 0       # --out '-': stdout
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == doc["components"][0]
    study = ["--law", "normal:10,1.7", "--n", "50", "--replications", "8"]
    assert run_cli(["systemic", "--measure", _ONE_COMPONENT, "--out", str(sys_out),
                    "--limit-samples", "1000"] + study) == 0
    assert run_cli(["simulate", "--measure", ho_json, "--out", str(sim)] + study) == 0
    sdoc, simdoc = json.loads(sys_out.read_text()), json.loads(sim.read_text())
    assert sdoc["exact_value"] == sdoc["exact_components"][0] == simdoc["exact_value"]
    assert sdoc["mean"] == simdoc["mean"]
