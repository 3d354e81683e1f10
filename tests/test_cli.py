import csv
import io
import json
import math

import pytest

from fse.delta import delta_closed_form
from fse.linear import linear_closed_form
from fse.result import DeltaConfig, LinearConfig, TimeConfig
from fse.time_factor import time_factor
from fse.verify import cli_subprocess


def run_cli(*args):
    return cli_subprocess(*args, capture_output=True, text=True, timeout=300)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["coord", "re", "im", "abs2", "err_est", "method"]
    return rows[1:]


def test_delta_grid_csv():
    r = run_cli("delta", "--alpha", "1.5", "--theta", "0.25",
                "--energy", "-1", "--gamma", "1", "--hbar", "1",
                "--c-alpha", "1", "--grid", "-3:3:121")
    assert r.returncode == 0, r.stderr
    rows = parse_csv(r.stdout)
    assert len(rows) == 121
    mid = rows[60]
    assert float(mid[0]) == 0.0
    assert mid[5] == "quadrature"
    assert all(row[5].startswith("closed[") for row in rows[:60])
    # profile decays away from the well
    assert float(rows[1][3]) < float(rows[60][3])


def test_time_unitary_at_first_order():
    r = run_cli("time", "--beta", "1", "--energy", "-0.5",
                "--grid", "0:5:11")
    assert r.returncode == 0, r.stderr
    for row in parse_csv(r.stdout):
        assert abs(float(row[3]) - 1.0) < 1e-12


def test_json_envelope():
    r = run_cli("linear", "--alpha", "1.5", "--theta", "0.3",
                "--c-alpha", "1", "--energy", "0.5",
                "--grid", "-1:2:7", "--format", "json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert set(doc["meta"]) == {"command", "version", "tolerance",
                               "method", "config"}
    assert doc["meta"]["command"] == "linear"
    assert doc["meta"]["version"] == "0.1.0"
    assert len(doc["rows"]) == 7
    row = doc["rows"][0]
    assert set(row) == {"coord", "re", "im", "abs2", "err_est", "method"}
    assert abs(row["abs2"] - (row["re"] ** 2 + row["im"] ** 2)) < 1e-15


def test_output_is_deterministic():
    args = ("delta", "--alpha", "1.7", "--theta", "-0.2", "--c-alpha", "1",
            "--energy", "-0.8", "--grid", "-2:2:41")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


@pytest.mark.parametrize("command", [("delta",), ("linear",),
                                     ("full", "--potential", "delta", "--t", "1")],
                         ids=["delta", "linear", "full"])
def test_invalid_skew_exits_2(command):
    # no --c-alpha either: the skew is reported, not the missing coefficient
    r = run_cli(*command, "--alpha", "1.9", "--theta", "0.5",
                "--energy", "-1", "--grid", "-1:1:5")
    assert r.returncode == 2
    assert "|theta| <= min(alpha, 2 - alpha)" in r.stderr


def test_tolerance_range_exits_2():
    r = run_cli("time", "--beta", "0.8", "--grid", "0:1:3", "--tol", "1.0")
    assert r.returncode == 2
    r = run_cli("time", "--beta", "0.8", "--grid", "0:1:3", "--tol", "1e-15")
    assert r.returncode == 2


def test_missing_dispersion_coefficient():
    # no physical default away from alpha = 2
    r = run_cli("delta", "--alpha", "1.5", "--energy", "-1",
                "--grid", "-1:1:5")
    assert r.returncode == 2
    assert "--c-alpha" in r.stderr
    # at alpha = 2 it falls back to hbar^2 / (2 mass)
    r2 = run_cli("delta", "--alpha", "2", "--energy", "-1",
                 "--grid", "1:2:3")
    assert r2.returncode == 0, r2.stderr


def test_origin_refuses_series_route_exit_3():
    r = run_cli("delta", "--alpha", "1.5", "--c-alpha", "1",
                "--energy", "-1", "--grid", "0:1:2", "--method", "series")
    assert r.returncode == 3
    assert "x = 0" in r.stderr


def test_linear_series_method_is_the_closed_form_series_route():
    # a skewed ramp: the H residue series right of the turning point
    # (x = 0.5), the continuation left of it
    r = run_cli("linear", "--alpha", "1.5", "--theta", "0.3", "--c-alpha", "1",
                "--energy", "0.5", "--grid=-1:2:7", "--method", "series")
    assert r.returncode == 0, r.stderr
    cfg = LinearConfig(alpha=1.5, theta=0.3, c_alpha=1.0, energy=0.5)
    rows = parse_csv(r.stdout)
    assert {row[5].split("|")[0] for row in rows} == {"h[series]", "series-continuation"}
    for row in rows:
        want = linear_closed_form(cfg, float(row[0]), rel_tol=1e-9, method="series")
        assert complex(float(row[1]), float(row[2])) == want.value
        assert (float(row[4]), row[5]) == (want.err_est, want.method)


def test_linear_continuation_past_product_overflow_exits_0():
    # y^k once overflowed before the factorials caught up
    r = run_cli("linear", "--alpha", "2", "--energy", "0", "--grid=-15:-9:3")
    assert r.returncode == 0, r.stderr
    assert all(math.isfinite(float(row[1])) for row in parse_csv(r.stdout))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_value_past_abs2_range_exits_3(fmt):
    r = run_cli("delta", "--alpha", "1.5", "--theta", "0.25", "--c-alpha", "1",
                "--gamma", "1e300", "--grid", "0.5:1:2", "--format", fmt)
    assert r.returncode == 3
    assert "NonConvergence" in r.stderr and "Traceback" not in r.stderr


def test_grid_format_errors_exit_2():
    r = run_cli("time", "--beta", "1", "--grid", "0:1")
    assert r.returncode == 2
    r = run_cli("time", "--beta", "1", "--grid", "0:1:200001")
    assert r.returncode == 2
    r = run_cli("ml", "--beta", "0.5", "--grid=-inf:1:3")
    assert r.returncode == 2
    assert "finite" in r.stderr
    r = run_cli("foxh", "--m", "1", "--n", "0", "--lower", "0:1",
                "--grid=0:inf:3")
    assert r.returncode == 2
    assert "finite" in r.stderr


@pytest.mark.parametrize("option,value", [
    ("--energy", "-1e-3"), ("--theta", "-2.5e-1"), ("--k-norm", "-1-2j")])
def test_negative_scientific_option_values(option, value):
    base = ("delta", "--alpha", "1.5", "--c-alpha", "1", "--grid", "1:2:2")
    spaced = run_cli(*base, option, value)
    fused = run_cli(*base, option + "=" + value)
    assert fused.returncode == 0, fused.stderr
    assert spaced.returncode == 0, spaced.stderr
    assert spaced.stdout == fused.stdout


@pytest.mark.parametrize("command", [
    ("time", "--beta", "0.7", "--grid", "0:2:3", "--method", "contour"),
    ("full", "--potential", "delta", "--t", "1.2", "--alpha", "1.5",
     "--c-alpha", "1", "--grid", "0.5:1:2", "--method", "quadrature"),
], ids=["time", "full"])
def test_unsupported_method_exits_2(command):
    r = run_cli(*command)
    assert r.returncode == 2
    assert "--method auto" in r.stderr
    # the one route they have is their default
    auto = run_cli(*command[:-1], "auto")
    default = run_cli(*command[:-2])
    assert auto.returncode == default.returncode == 0, auto.stderr
    assert auto.stdout == default.stdout


def test_mittag_leffler_overflow_exits_3():
    r = run_cli("ml", "--beta", "0.5", "--grid", "20:30:3")
    assert r.returncode == 3
    assert "NonConvergence" in r.stderr


def test_full_matches_manual_product():
    r = run_cli("full", "--potential", "delta", "--t", "1.2",
                "--beta", "0.7", "--alpha", "1.5", "--c-alpha", "1",
                "--energy", "-0.5", "--grid", "0.5:1.5:2",
                "--format", "json")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    tcfg = TimeConfig(beta=0.7, hbar=1.0, energy=-0.5)
    dcfg = DeltaConfig(alpha=1.5, theta=0.0, hbar=1.0, c_alpha=1.0,
                       energy=-0.5)
    f = time_factor(tcfg, 1.2).value
    for row, x in zip(doc["rows"], (0.5, 1.5)):
        want = f * delta_closed_form(dcfg, x).value
        got = complex(row["re"], row["im"])
        assert abs(got - want) <= 1e-12 * abs(want)
        assert "*" in row["method"]


def test_full_at_origin_honours_the_tolerance():
    # x = 0 takes the quadrature route in both commands, at the same tolerance
    args = ("--alpha", "1.5", "--theta", "0.25", "--c-alpha", "1",
            "--tol", "1e-4", "--grid", "-1:1:3", "--format", "json")
    full = run_cli("full", "--potential", "delta", "--t", "0", *args)
    delta = run_cli("delta", *args)
    assert full.returncode == 0, full.stderr
    assert delta.returncode == 0, delta.stderr
    at0 = [[row for row in json.loads(r.stdout)["rows"] if row["coord"] == 0.0][0]
           for r in (full, delta)]
    assert at0[1]["method"] == "quadrature"
    assert at0[0]["err_est"] == pytest.approx(at0[1]["err_est"], rel=1e-12)


def test_complex_normalization_flag():
    base = run_cli("delta", "--alpha", "1.5", "--c-alpha", "1",
                   "--energy", "-1", "--grid", "1:2:2")
    scaled = run_cli("delta", "--alpha", "1.5", "--c-alpha", "1",
                     "--energy", "-1", "--grid", "1:2:2",
                     "--k-norm", "2-1j")
    assert base.returncode == scaled.returncode == 0
    b = parse_csv(base.stdout)[0]
    s = parse_csv(scaled.stdout)[0]
    want = complex(float(b[1]), float(b[2])) * (2.0 - 1.0j)
    got = complex(float(s[1]), float(s[2]))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_foxh_subcommand_exponential():
    r = run_cli("foxh", "--m", "1", "--n", "0", "--lower", "0:1",
                "--grid", "0.5:2:4")
    assert r.returncode == 0, r.stderr
    rows = parse_csv(r.stdout)
    for row in rows:
        z = float(row[0])
        assert abs(float(row[1]) - math.exp(-z)) < 1e-9
        assert abs(float(row[2])) < 1e-15


def test_ml_subcommand_exponential_law():
    r = run_cli("ml", "--beta", "1", "--grid", "-2:-1:2")
    assert r.returncode == 0, r.stderr
    rows = parse_csv(r.stdout)
    assert abs(float(rows[0][1]) - math.exp(-2.0)) < 1e-10
    assert abs(float(rows[1][1]) - math.exp(-1.0)) < 1e-10


@pytest.mark.parametrize("hbar", ["1e-200", "1e200"])
@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_extreme_hbar_on_the_delta_well_exits_3(hbar, method):
    # (2 pi hbar)^2 underflows to 0 or overflows: a typed refusal, no traceback
    r = run_cli("delta", "--alpha", "1.5", "--theta", "0.25", "--c-alpha", "1",
                "--hbar", hbar, "--grid", "-0.5:1:3", "--method", method)
    assert r.returncode == 3, r.stderr
    assert "NonConvergence" in r.stderr and "Traceback" not in r.stderr


def test_contour_past_its_log_z_cap_exits_3():
    r = run_cli("foxh", "--m", "1", "--n", "0", "--lower", "0:1",
                "--grid", "1e300:1e301:2")
    assert r.returncode == 3
    assert "NonConvergence" in r.stderr


@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_overflowing_result_is_a_numerical_refusal(method):
    # gamma * k_norm near the top of double range: no finite answer exists,
    # which is a numerical refusal (exit 3), not an invalid input (exit 2)
    r = run_cli("delta", "--alpha", "1.5", "--theta", "0.25", "--c-alpha", "1",
                "--gamma", "1e308", "--k-norm", "10", "--grid", "0.5:1:2",
                "--method", method)
    assert r.returncode == 3, r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("grid", ["0.5:1:2", "0:1:2"])
def test_overflowing_prefactor_is_refused_before_quadrature(grid):
    # the first grid point (x = 0.5, then x = 0) is refused by name before
    # any integrand runs, so numpy has nothing to warn about
    r = run_cli("delta", "--alpha", "1.5", "--theta", "0.25", "--c-alpha", "1",
                "--gamma", "1e308", "--k-norm", "10", "--grid", grid,
                "--method", "quadrature")
    assert r.returncode == 3, r.stderr
    assert "NonConvergence" in r.stderr and "prefactor" in r.stderr
    assert "RuntimeWarning" not in r.stderr and "Traceback" not in r.stderr
