import csv
import io
import json
import math

import mpmath as mp
import pytest

import fse.cli
import fse.delta
import fse.foxh
import fse.linear
from fse.cli import main
from fse.delta import delta_closed_form, delta_quadrature
from fse.linear import linear_closed_form
from fse.result import DeltaConfig, LinearConfig, TimeConfig
from fse.time_factor import time_factor
from fse.verify import cli_subprocess
from tests.traffic_lines import readme_commands


def run_cli(*args):
    return cli_subprocess(*args, capture_output=True, text=True, timeout=300)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["coord", "re", "im", "abs2", "err_est", "method"]
    return rows[1:]


def _value(row):
    return complex(float(row[1]), float(row[2]))


def test_delta_grid_csv():
    r = run_cli("delta", "--alpha", "1.5", "--theta", "0.25",
                "--energy", "-1", "--gamma", "1", "--hbar", "1",
                "--c-alpha", "1", "--grid", "-3:3:121")
    assert r.returncode == 0, r.stderr
    rows = parse_csv(r.stdout)
    assert len(rows) == 121
    mid = rows[60]
    assert float(mid[0]) == 0.0
    # x = 0 is the closed form's k = 0 residue, as every other row is closed
    assert mid[5] == "closed[series]"
    assert all(row[5].startswith("closed[") for row in rows)
    q = delta_quadrature(DeltaConfig(alpha=1.5, theta=0.25, energy=-1.0), 0.0)
    assert abs(_value(mid) - q.value) <= float(mid[4]) + q.err_est
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


@pytest.mark.parametrize("command,grid", [
    (("delta",), "0:1:2"), (("linear",), "-2:1:2"),
    (("full", "--potential", "delta", "--t", "1"), "0.5:1:2"),
], ids=["delta", "linear", "full"])
def test_nan_skew_exits_2(command, grid):
    # a NaN theta is refused up front, not by the route it breaks later
    r = run_cli(*command, "--alpha", "1.5", "--theta", "nan", "--c-alpha", "1",
                "--grid=" + grid)
    assert r.returncode == 2, r.stderr
    assert "|theta| <= min(alpha, 2 - alpha)" in r.stderr and "Traceback" not in r.stderr


def test_tolerance_range_exits_2():
    r = run_cli("time", "--beta", "0.8", "--grid", "0:1:3", "--tol", "1.0")
    assert r.returncode == 2
    r = run_cli("time", "--beta", "0.8", "--grid", "0:1:3", "--tol", "1e-15")
    assert r.returncode == 2


def test_tolerance_takes_the_library_range():
    # --tol is checked as the library checks rel_tol, on [1e-14, 1e-2]
    for tol in ("1e-14", "1e-13", "1e-2"):
        r = run_cli("time", "--beta", "0.7", "--grid", "0:1:3", "--tol", tol)
        assert r.returncode == 0, (tol, r.stderr)
    for tol in ("9e-15", "1.1e-2"):
        r = run_cli("time", "--beta", "0.7", "--grid", "0:1:3", "--tol", tol)
        assert r.returncode == 2, tol
        assert "rel_tol must lie in [1e-14, 1e-2]" in r.stderr


def test_missing_dispersion_coefficient():
    # no physical default away from alpha = 2
    r = run_cli("delta", "--alpha", "1.5", "--energy", "-1",
                "--grid", "-1:1:5")
    assert r.returncode == 2
    assert "--c-alpha" in r.stderr
    # at alpha = 2 it falls back to 1 / (2 mass)
    r2 = run_cli("delta", "--alpha", "2", "--energy", "-1",
                 "--grid", "1:2:3")
    assert r2.returncode == 0, r2.stderr


@pytest.mark.parametrize("command, classical", [
    (("delta", "--energy", "-0.5", "--grid", "0:2:5"),
     lambda x: fse.delta.delta_classical(0.7, 1.0, -0.5, 1.0, x)),
    (("linear", "--energy", "0.5", "--grid", "0:1.5:6"),
     lambda x: fse.linear.linear_classical_airy(0.7, 1.0, 0.5, 1.0, 1.0, x)),
], ids=["delta", "linear"])
def test_order_two_default_keeps_the_classical_profile_at_any_hbar(command, classical,
                                                                   capsys):
    # the routes' p is the momentum, so the default C = 1/(2 mass) makes the
    # textbook kinetic term p^2/(2 mass) at every hbar, and the profile is
    # the classical one times a constant
    assert main([command[0], "--alpha", "2", "--hbar", "0.7", *command[1:],
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["config"]["c_alpha"] == 0.5
    ratios = [complex(row["re"], row["im"]) / classical(row["coord"]) for row in doc["rows"]]
    assert max(abs(r / ratios[0] - 1.0) for r in ratios) < 1e-9


@pytest.mark.parametrize("command,options,name", [
    (("delta",), ("--mass", "0"), "mass"),
    (("linear",), ("--mass", "0"), "mass"),
    (("full", "--potential", "delta", "--t", "1"), ("--mass", "0"), "mass"),
    (("delta",), ("--mass", "-1"), "mass"),
    (("delta",), ("--mass", "nan"), "mass"),
    (("delta",), ("--mass", "1e-309"), "c_alpha"),
], ids=["delta-zero", "linear-zero", "full-zero", "negative", "nan", "overflow"])
def test_bad_mass_behind_the_default_coefficient_exits_2(command, options, name):
    # c_alpha = 1 / (2 mass) at alpha = 2 needs a positive finite mass, and
    # a quotient past double range is refused as c_alpha, not raised
    r = run_cli(*command, "--alpha", "2", *options, "--grid", "0.5:1:2")
    assert r.returncode == 2, r.stderr
    assert name + " must be positive" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("command,option", [
    (("time", "--beta", "0.7"), "--mass"),
    (("foxh", "--m", "1", "--n", "0", "--lower", "0:1"), "--mass"),
    (("ml", "--beta", "0.5"), "--mass"),
    (("foxh", "--m", "1", "--n", "0", "--lower", "0:1"), "--hbar"),
    (("ml", "--beta", "0.5"), "--hbar"),
], ids=["time-mass", "foxh-mass", "ml-mass", "foxh-hbar", "ml-hbar"])
def test_options_a_command_does_not_read_exit_2(command, option):
    r = run_cli(*command, option, "2", "--grid", "0.5:1:2")
    assert r.returncode == 2
    assert "unrecognized arguments: " + option in r.stderr


@pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[0])
def test_readme_grid_commands(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    count = int(argv[argv.index("--grid") + 1].split(":")[2])
    if "json" in argv:
        ims = [row["im"] for row in json.loads(out)["rows"]]
    else:
        ims = [float(row[2]) for row in parse_csv(out)]
    assert len(ims) == count
    # real coordinates and a real k_norm give real values; time and full
    # carry the complex time factor
    if argv[0] in ("delta", "linear", "ml", "foxh"):
        assert ims == [0.0] * count


def test_origin_series_route_answers_from_the_closed_form():
    # x = 0 under --method series is the closed form's k = 0 residue, and
    # only --method quadrature takes the oracle there
    ref = delta_quadrature(DeltaConfig(alpha=1.5, energy=-1.0), 0.0)
    for method, route in (("series", "closed[series]"), ("quadrature", "quadrature")):
        r = run_cli("delta", "--alpha", "1.5", "--c-alpha", "1",
                    "--energy", "-1", "--grid", "0:1:2", "--method", method)
        assert r.returncode == 0, r.stderr
        at0 = parse_csv(r.stdout)[0]
        assert (float(at0[0]), at0[5]) == (0.0, route)
        assert abs(_value(at0) - ref.value) <= float(at0[4]) + ref.err_est


def test_delta_far_out_agrees_with_quadrature_or_exits_3():
    # at zeta ~ 230 the odd part's second pole chain peaks long after the
    # first: a series that stopped between them printed 4.8e84 and 1.75e85
    # where the quadrature gives 5.1e-7
    argv = ("delta", "--alpha", "1.1", "--theta", "0.45", "--c-alpha", "1",
            "--energy", "-1", "--tol", "1e-3", "--grid", "200:201:2")
    r = run_cli(*argv)
    if r.returncode == 3:
        return
    assert r.returncode == 0, r.stderr
    q = run_cli(*argv, "--method", "quadrature")
    assert q.returncode == 0, q.stderr
    for row, ref in zip(parse_csv(r.stdout), parse_csv(q.stdout), strict=True):
        assert row[0] == ref[0]
        diff = abs(complex(float(row[1]), float(row[2]))
                   - complex(float(ref[1]), float(ref[2])))
        assert diff <= float(row[4]) + float(ref[4]), (row, ref)


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


def test_h_commands_share_one_route_table():
    # `fse foxh`, `fse delta` and `fse linear` read their --method from
    # the one table foxh defines
    assert fse.delta._ROUTES is fse.linear._ROUTES is fse.cli._ROUTES is fse.foxh._ROUTES
    assert list(fse.cli._ROUTES) == ["auto", "series", "contour"]


def test_mittag_leffler_overflow_exits_3():
    r = run_cli("ml", "--beta", "0.5", "--grid", "20:30:3")
    assert r.returncode == 3
    assert "NonConvergence" in r.stderr


def test_time_factor_at_a_tiny_order_answers():
    # |z|^(1/beta) overflows at beta = 0.001, |z| ~ 5: outside the series
    # ball, so the contour answers E_beta(z) ~ 1 / (1 - z) ~ 1/6
    r = run_cli("time", "--beta", "0.001", "--energy", "-5", "--grid", "1:2:2")
    assert r.returncode == 0, r.stderr
    rows = parse_csv(r.stdout)
    assert [row[5] for row in rows] == ["contour", "contour"]
    for row in rows:
        assert abs(float(row[1]) - 1.0 / 6.0) < 1e-3


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


@pytest.mark.parametrize("space, c_alpha", [
    (("--alpha", "1.5", "--c-alpha", "3"), 3.0),
    (("--alpha", "2", "--mass", "2"), 0.25),        # 1 / (2 mass)
], ids=["given", "alpha-2-default"])
def test_full_json_records_the_c_alpha_it_used(space, c_alpha, capsys):
    argv = ["full", "--potential", "delta", "--t", "1.2", "--beta", "0.7",
            *space, "--energy", "-0.5", "--grid", "0.5:1.5:2"]
    assert main(argv + ["--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["config"]["c_alpha"] == c_alpha
    # the same config as fse delta's
    assert main(["delta", *space, "--energy", "-0.5", "--grid", "0.5:1.5:2",
                 "--format", "json"]) == 0
    delta = json.loads(capsys.readouterr().out)["meta"]["config"]
    assert {k: doc["meta"]["config"][k] for k in delta} == delta


def test_full_at_origin_honours_the_tolerance():
    # x = 0 takes the closed form in both commands, at the same tolerance
    args = ("--alpha", "1.5", "--theta", "0.25", "--c-alpha", "1",
            "--tol", "1e-4", "--grid", "-1:1:3", "--format", "json")
    full = run_cli("full", "--potential", "delta", "--t", "0", *args)
    delta = run_cli("delta", *args)
    assert full.returncode == 0, full.stderr
    assert delta.returncode == 0, delta.stderr
    at0 = [[row for row in json.loads(r.stdout)["rows"] if row["coord"] == 0.0][0]
           for r in (full, delta)]
    assert at0[1]["method"] == "closed[series]"
    assert at0[0]["method"].endswith("*closed[series]")
    assert at0[0]["err_est"] == pytest.approx(at0[1]["err_est"], rel=1e-12)
    q = delta_quadrature(DeltaConfig(alpha=1.5, theta=0.25, energy=-1.0), 0.0)
    for row in at0:
        assert abs(complex(row["re"], row["im"]) - q.value) <= row["err_est"] + q.err_est


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


@pytest.mark.parametrize("options, message", [
    (("--m", "1", "--n", "0", "--lower", "0:1:2"), "gamma pairs must be a:W,a:W,..."),
    (("--m", "1", "--n", "0", "--lower", "a:1"), "gamma pair fields must be numeric"),
    (("--m", "1", "--n", "0", "--lower", "0:0"), "H-function weights must be positive"),
    (("--m", "2", "--n", "0", "--lower", "0:1"), "need 0 <= m <= q"),
], ids=["shape", "non-numeric", "zero-weight", "m-past-q"])
def test_foxh_bad_parameters_exit_2(options, message, capsys):
    # main maps the ValidationError of the pair parser and of FoxHParams to
    # exit 2 with its message; nothing escapes as an exception
    assert main(["foxh", *options, "--grid", "0.5:1:2"]) == 2
    assert message in capsys.readouterr().err


def test_ml_subcommand_exponential_law():
    r = run_cli("ml", "--beta", "1", "--grid", "-2:-1:2")
    assert r.returncode == 0, r.stderr
    rows = parse_csv(r.stdout)
    assert abs(float(rows[0][1]) - math.exp(-2.0)) < 1e-10
    assert abs(float(rows[1][1]) - math.exp(-1.0)) < 1e-10


def test_ml_beta_one_deep_negative_grid():
    # E_1 = exp exactly, so the deep negative axis answers to full
    # relative accuracy
    r = run_cli("ml", "--beta", "1", "--grid=-20:-13:8")
    assert r.returncode == 0, r.stderr
    rows = parse_csv(r.stdout)
    assert len(rows) == 8
    for row in rows:
        want = math.exp(float(row[0]))
        assert row[5] == "exp"
        assert abs(float(row[1]) - want) <= 4e-16 * want
        assert float(row[2]) == 0.0
        assert 0.0 < float(row[4]) <= 1e-15 * want


@pytest.mark.parametrize("argv, route", [
    # E_1/2(-8) = e^64 erfc(8) = 0.0699852; the series sums to 3.18e13
    # with err_est 1.29e15
    (("ml", "--beta", "0.5", "--method", "series", "--grid=-8:-7:2"),
     "Mittag-Leffler series"),
    # e^-20 = 2.0611536e-9; the contour gives 2.0622635e-9, and its own
    # err_est 3.05e-16 misses the default tolerance
    (("ml", "--beta", "1", "--method", "contour", "--grid=-20:-19:2"),
     "Mittag-Leffler contour"),
    (("foxh", "--m", "1", "--n", "0", "--lower", "0:1", "--method", "series",
      "--grid", "40:41:2"), "H series"),
], ids=["ml-series", "ml-contour", "foxh-series"])
def test_raw_routes_refuse_an_uncertified_answer_exit_3(argv, route):
    # a named route answers only what it certifies, as auto does
    r = run_cli(*argv)
    assert r.returncode == 3, r.stdout
    assert "NonConvergence: " + route in r.stderr


@pytest.mark.parametrize("b", ["570", "566"])
def test_contour_sum_past_double_range_exits_3(b, capsys):
    # in process, so that a numpy overflow warning fails the test: the node
    # sum reaches double range (570: a finite sum whose modulus overflows)
    argv = ["foxh", "--m", "1", "--n", "0", "--lower", b + ":4",
            "--grid", "152.08972971241963:152.1:2"]
    assert main(argv) == 3
    assert "NonConvergence: contour overflowed double range" in capsys.readouterr().err


def test_mittag_leffler_contour_past_double_range_exits_3(capsys):
    # in process, so that a numpy overflow warning fails the test: from
    # |z| ~ 5e307, (s^beta - z) w overflows at most nodes, which then added
    # 0 to the sum and printed 3.8e-308 where E_0.9 is about 6.2e-310
    assert main(["ml", "--beta", "0.9", "--grid=-1.7e308:-1e308:2"]) == 3
    assert ("NonConvergence: inversion contour of E_beta overflows double range"
            in capsys.readouterr().err)


def test_foxh_series_past_zeroed_poles(capsys):
    # 1/Gamma(-9 - s) zeroes the chain's poles k <= 9; the sum from k = 10
    # is 1.2689e-8 and 9.7003e-3, where the series used to print 0 +- 0
    argv = ["foxh", "--m", "1", "--n", "1", "--upper", "0.5:0.5",
            "--lower", "0:1,10:1", "--grid", "0.5:2:2"]
    assert main(argv) == 0
    rows = parse_csv(capsys.readouterr().out)
    with mp.workdps(30):
        for row in rows:
            z = mp.mpf(row[0])
            ref = mp.fsum((-1) ** k / mp.factorial(k) * mp.gamma(0.5 + 0.5 * k)
                          / mp.gamma(k - 9) * z ** k for k in range(10, 200))
            assert row[5] == "series"
            assert abs(_value(row) - complex(ref)) <= float(row[4]), row


@pytest.mark.parametrize("hbar", ["1e-200", "1e200"])
@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_extreme_hbar_on_the_delta_well_exits_3(hbar, method):
    # (2 pi hbar)^2 underflows to 0 or overflows: a typed refusal, no traceback
    r = run_cli("delta", "--alpha", "1.5", "--theta", "0.25", "--c-alpha", "1",
                "--hbar", hbar, "--grid", "-0.5:1:3", "--method", method)
    assert r.returncode == 3, r.stderr
    assert "NonConvergence" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("args", [
    ("delta", "--alpha", "1.5", "--hbar", "1e80", "--c-alpha", "1e-180",
     "--energy", "-1e170", "--grid", "0:1:2"),
    ("linear", "--alpha", "1.5", "--hbar", "1e120", "--c-alpha", "1e-60",
     "--slope", "1e180", "--grid", "0:1:2"),
], ids=["delta", "linear"])
def test_a_scale_past_double_range_exits_3(args):
    # valid inputs whose derived scale leaves double range: (2 pi hbar)^2
    # alpha E overflows, and the ramp's length scale underflows to 0
    r = run_cli(*args)
    assert r.returncode == 3, r.stderr
    assert "NonConvergence" in r.stderr and "out of double range" in r.stderr
    assert "Traceback" not in r.stderr


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


def test_a_grid_whose_span_overflows_is_refused_by_name():
    # -1e308:1e308 has finite endpoints, but stop - start overflows: the
    # grid, not a NaN argument built from its nodes, is at fault
    r = run_cli("ml", "--beta", "0.5", "--grid=-1e308:1e308:3")
    assert r.returncode == 2, r.stderr
    assert "grid span" in r.stderr and "NaN" not in r.stderr
    assert "RuntimeWarning" not in r.stderr and "Traceback" not in r.stderr
