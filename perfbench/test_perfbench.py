"""Tests of the benchmark's own pieces: inputs, percentiles, spans, gate."""

import math
import sys

import pytest

import fse
from perfbench import gate, latency, spans, speed, workloads
from perfbench.run import (Refused, Tally, evaluate, route_class, run_gate,
                           timed_rounds)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    gen = workloads.ROUNDS[name]
    for r in (0, 1):
        assert gen(7, r) == gen(7, r)
    assert gen(7, 0) != gen(8, 0)


def test_delta_grid_spans_the_same_zeta_grid_for_every_seed():
    a, b = workloads.delta_grid(1, 0), workloads.delta_grid(2, 0)
    assert [p.coord for p in a] != [p.coord for p in b]
    assert sorted(p.scaled for p in a) == pytest.approx(sorted(p.scaled for p in b))
    assert max(p.scaled for p in a) > 8.0 > min(p.scaled for p in a)
    # later rounds refine the same configs' grids
    c = workloads.delta_grid(1, 1)
    assert {p.cfg for p in c} == {p.cfg for p in a}
    assert not {p.coord for p in c} & {p.coord for p in a}


def _mix(points):
    tally = Tally()
    for _, res in evaluate(fse, points)[0]:
        tally.add(res)
    return tally.route_fracs()


def test_other_seed_has_a_similar_route_mix():
    for name in ("time-grid",):
        gen = workloads.ROUNDS[name]
        m1, m2 = _mix(gen(1, 0)), _mix(gen(2, 0))
        assert 0.25 < m1["route.series_frac"] < 0.75
        assert m1 == pytest.approx(m2, abs=0.1)
    ramps = [[p for p in workloads.param_sweep(s, 0) if p.route.startswith("linear")]
             for s in (1, 2)]
    assert _mix(ramps[0])["route.continuation_frac"] == 0.5
    assert _mix(ramps[1])["route.continuation_frac"] == 0.5


def test_alpha_and_skew_ranges():
    for name in ("delta-grid", "param-sweep", "oracle"):
        alphas = set()
        for p in workloads.ROUNDS[name](3, 0):
            a = p.cfg.alpha
            assert workloads.ALPHA_LO < a <= workloads.ALPHA_HI
            if p.route.startswith("delta"):
                assert 0.3 - 1e-12 <= abs(p.cfg.theta) / min(a, 2 - a) <= 0.9 + 1e-12
                assert p.cfg.energy < 0
            alphas.add(a)
        # drawn from a continuum, not a lattice; delta-grid adds the README well
        assert len({round(a, 3) for a in alphas}) == len(alphas)
    assert workloads.README_WELL in {p.cfg for p in workloads.delta_grid(3, 0)}


def test_van_der_corput():
    assert [workloads.van_der_corput(n) for n in range(5)] == [0, 0.5, 0.25, 0.75, 0.125]


def test_percentiles_and_ten_beyond_rule():
    xs = list(range(100, 0, -1))
    assert latency.percentile(xs, 0.5) == 50
    assert latency.percentile(xs, 0.9) == 90
    assert latency.beyond(100, 0.9) == 10
    assert latency.beyond(99, 0.9) == 9
    assert latency.min_samples(0.9) == 100
    assert latency.min_samples(0.5) == 20
    assert latency.percentile([3.0], 0.9) == 3.0


def test_timed_runs_have_fixed_work_and_enough_samples():
    assert timed_rounds("delta-grid", 1, 20.0) == timed_rounds("delta-grid", 2, 20.0)
    for name in workloads.WORKLOADS:
        rounds = timed_rounds(name, 1, 0.001)
        assert rounds * len(workloads.ROUNDS[name](1, 0)) >= latency.min_samples(0.9)


def test_scaler_scales_each_point_by_the_probes_around_it(monkeypatch):
    probes = iter([0.01, 0.02, 0.03])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    scaler = speed.Scaler()
    scaler.after(scaler.last)                          # not due
    scaler.after(scaler.last + speed.PROBE_EVERY_S)    # due: probes 0.02
    scaler.after(scaler.last)
    ref = speed.PROBE_REF_S
    # the last stretch is closed by a final probe, 0.03
    assert scaler.factors() == pytest.approx([2 * ref / 0.03] * 2 + [2 * ref / 0.05])
    assert speed.scaled(1.0, ref, ref) == pytest.approx(1.0)
    assert speed.scaled(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)


def _span(name, parent, start, end):
    return [name, parent, start, end, True, None]


def test_self_time_is_span_minus_children():
    tree = [_span("root", -1, 0.0, 10.0),
            _span("a", 0, 1.0, 4.0),
            _span("c", 1, 2.0, 3.0),
            _span("b", 0, 5.0, 7.0)]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_layer_metrics_on_a_synthetic_tree():
    auto, series, contour = "foxh.eval_auto", "foxh.eval_series", "foxh.eval_contour"
    tree = [_span(auto, -1, 0.0, 10.0), _span(series, 0, 0.0, 3.0),
            _span(contour, 0, 3.0, 9.0)]
    tree[1][spans.OK] = False
    tree[2][spans.INFO] = 2560
    m = spans.layer_metrics(tree)
    assert m["foxh.eval_auto.calls"] == 1
    assert m["foxh.eval_auto.series_hit_frac"] == 0.0
    assert m["foxh.eval_auto.wasted_series_s"] == pytest.approx(3.0)
    assert m["foxh.eval_series.refused"] == 1
    assert m["foxh.eval_contour.nodes"] == 2560
    assert m["foxh.eval_contour.self_s"] == pytest.approx(6.0)


def _bindings():
    out = {}
    for name, mod in sys.modules.items():
        if name == "fse" or name.startswith("fse."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if type(value) is dict:
                    for k, v in value.items():
                        out[(name, key, k)] = v
    return out


def test_tracer_wraps_consumer_copies_and_restores_everything():
    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer:
            assert tracer.wraps("fse.foxh", "log_gamma")
            assert tracer.wraps("fse.delta", "_ROUTES['auto']")
            raise RuntimeError("boom")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not tracer.wraps("fse.foxh", "log_gamma")


def test_traced_values_are_bit_identical_and_counted():
    cfg = fse.DeltaConfig(alpha=1.5, theta=0.25, energy=-1.0)
    lin = fse.LinearConfig(alpha=1.5, theta=0.1, energy=0.5)
    plain = [fse.delta_closed_form(cfg, 0.3), fse.linear_closed_form(lin, 1.5)]
    tracer = spans.Tracer()
    with tracer:
        seen = [fse.delta_closed_form(cfg, 0.3), fse.linear_closed_form(lin, 1.5)]
    assert [(r.value, r.err_est, r.method) for r in plain] == \
        [(r.value, r.err_est, r.method) for r in seen]
    m = spans.layer_metrics(tracer.spans)
    assert m["foxh.eval_auto.calls"] == 5
    assert m["foxh.eval_series.terms"] == sum(r.work for r in seen)
    assert m["numerics.log_gamma.scalar_calls"] > 0
    assert m["delta.delta_closed_form.self_s"] > 0.0


def test_route_classes():
    assert route_class("closed[series]") == "series"
    assert route_class("closed[mixed]") == "mixed"
    assert route_class("h[contour]|x<0") == "contour"
    assert route_class("series-continuation|x<0") == "continuation"
    assert route_class("ray|x<0") == "quadrature"
    assert route_class("quadrature") == "quadrature"
    assert route_class("contour") == "contour"


def test_gate_references_are_independent_and_accurate():
    # E_1/2(-x) = exp(x^2) erfc(x)
    import mpmath
    for x in (0.5, 2.0):
        want = complex(mpmath.exp(x * x) * mpmath.erfc(x))
        assert abs(gate.mittag_taylor(0.5, -x) - want) < 1e-14
    cfg = fse.DeltaConfig(alpha=1.35, theta=-0.4, c_alpha=0.8, energy=-1.3)
    q = fse.delta_quadrature(cfg, 0.0)
    assert abs(gate.delta_at_origin(cfg) - q.value) < 1e-6 * abs(q.value)
    t = fse.TimeConfig(beta=1.0, energy=-0.7)
    assert gate.check(workloads.Point("time_factor", t, 3.0, 0.0),
                      fse.time_factor(t, 3.0, rel_tol=1e-9))["ok"]


def test_gate_flags_a_wrong_value():
    t = fse.TimeConfig(beta=0.6, energy=-1.0)
    point = workloads.Point("time_factor", t, 2.0, 0.0)
    good = fse.time_factor(t, 2.0, rel_tol=1e-9)
    bad = fse.EvalResult(good.value * (1 + 1e-6), good.err_est, good.method)
    assert gate.check(point, good)["ok"]
    assert not gate.check(point, bad)["ok"]
    assert math.isfinite(gate.check(point, good)["err_ratio"])


def test_gate_names_a_point_whose_reference_refuses(monkeypatch):
    t = fse.TimeConfig(beta=0.6, energy=-1.0)
    points = [workloads.Point("time_factor", t, 2.0, 0.0)] * 2
    results = [fse.time_factor(t, 2.0, rel_tol=1e-9), Refused("NonConvergence", "")]

    def refuse(point):
        raise fse.NonConvergence("no reference")

    monkeypatch.setattr(gate, "reference", refuse)
    out = run_gate(gate, points, results, seed=1)
    assert out["checked"] == 0
    assert len(out["misses"]) == 1
    assert "point 0 time_factor" in out["misses"][0]
    assert "mpmath taylor refused: NonConvergence" in out["misses"][0]
