import re
import shutil
from pathlib import Path

from tests.ab_replay import COUNTED, main, run_pass

SRC = Path(__file__).resolve().parents[1] / "src"


def test_a_tree_against_itself_reads_no_outcome_difference(capsys):
    assert main([str(SRC), str(SRC), "--workloads", "time-grid", "--seeds", "1",
                 "--rounds", "0", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    m = re.search(r"time-grid: (\d+) points, 2 pairs, time ratio new/old median ([\d.]+) "
                  r"\(Q1 ([\d.]+), Q3 ([\d.]+)\)", out)
    assert m and int(m.group(1)) > 0
    assert float(m.group(3)) <= float(m.group(2)) <= float(m.group(4))
    assert "0 of %s outcomes differ in a parsed field" % m.group(1) in out


def test_a_changed_work_count_fails_the_ab(capsys, tmp_path):
    shutil.copytree(SRC / "fse", tmp_path / "fse")
    foxh = tmp_path / "fse" / "foxh.py"
    text = foxh.read_text()
    old = '"H series", "series", nterms)'
    assert text.count(old) == 1
    foxh.write_text(text.replace(old, '"H series", "series", nterms + 1)'))
    assert main([str(SRC), str(tmp_path), "--workloads", "delta-grid", "--seeds", "1",
                 "--rounds", "0", "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert "0 with a changed tag, method or class:" in out
    assert re.search(r"^[1-9]\d* answers with a changed work$", out, re.M)


def test_two_passes_of_one_tree_count_alike(capsys):
    passes = [run_pass(str(SRC), "time-grid", "1", "0-1", counted=True) for _ in range(2)]
    counts = passes[0]["counts"]
    assert counts == passes[1]["counts"]
    assert sorted(counts) == sorted("%s.%s" % c for c in COUNTED)
    calls, refused, work, missed = counts["mittag.ml_series"]
    assert 0 < calls < len(passes[0]["lines"]) and refused == 0 and work > calls
    # a raw answer that misses rel_tol is counted, not refused: ml_eval
    # passes it over for the other route
    assert 0 <= missed < calls
    contour = counts["mittag.ml_contour"]
    assert contour[0] > 0 and 0 <= contour[3] < contour[0]
    # time_factor never reaches foxh or the quadrature engines
    assert counts["foxh.eval_series"] == [0] * 6
    assert counts["foxh.eval_contour"] == counts["foxh._Plan"] == [0, 0, 0]
    assert counts["foxh.reduce_params"] == [0, 0, 0]
    assert counts["foxh._term_part"] == [0, 0, 0]
    assert counts["quadrature._panel_est"] == [0, 0, 0]
    # the timed passes of an A/B print each side's counts
    assert main([str(SRC), str(SRC), "--workloads", "time-grid", "--seeds", "1",
                 "--rounds", "0", "--pairs", "2"]) == 0
    assert re.search(r"^  mittag\.ml_series: calls (\d+) -> \1, refused 0 -> 0, "
                     r"work (\d+) -> \2, missed (\d+) -> \3$", capsys.readouterr().out, re.M)


def test_a_pass_reports_its_point_tails_and_cold_contour_builds():
    out = run_pass(str(SRC), "time-grid", "1", "0", counted=True)
    assert 0.0 < out["p50_ms"] <= out["p90_ms"]
    # the counting pass comes first in a fresh process, so it sees every
    # contour the round builds cold, and reads the rest from the table;
    # a build's arrays carry no work
    contours, builds = out["counts"]["mittag.ml_contour"][0], out["counts"]["mittag._nodes"]
    assert 0 < builds[0] < contours and builds[1:] == [0, 0]


def test_a_pass_counts_its_plan_builds():
    # a delta grid reuses its H sets across points, so a cold pass builds
    # fewer plans than it makes H calls, and two passes build alike
    passes = [run_pass(str(SRC), "delta-grid", "1", "0", counted=True) for _ in range(2)]
    builds = [out["counts"]["foxh._Plan"] for out in passes]
    h_calls = sum(passes[0]["counts"]["foxh." + name][0]
                  for name in ("eval_series", "eval_contour"))
    assert builds[0] == builds[1] and 0 < builds[0][0] < h_calls and builds[0][1:] == [0, 0]
    # a plan reduces its set once, when it is built
    assert [out["counts"]["foxh.reduce_params"] for out in passes] == builds
    # each contour call sums at least one cut, and one more per extension
    counts = passes[0]["counts"]
    assert 0 < counts["foxh.eval_contour"][0] <= counts["foxh._contour_nodes"][0]
    assert counts["foxh._contour_nodes"][1:] == [0, 0]
    # the term parts a cold pass builds, alike in both passes; and every
    # series refusal falls in one class, the rounding floor, the error
    # estimate or other
    parts = [out["counts"]["foxh._term_part"] for out in passes]
    assert parts[0] == parts[1] and parts[0][0] > 0 and parts[0][1:] == [0, 0]
    calls, refused, work, rounding, estimate, other = counts["foxh.eval_series"]
    assert rounding + estimate + other == refused < calls


def test_a_pass_counts_the_oracles_panel_calls():
    out = run_pass(str(SRC), "oracle", "1", "0", counted=True)
    # one call per panel batch, at least one per quadrature point; no work
    calls = out["counts"]["quadrature._panel_est"]
    assert calls[0] >= len(out["lines"]) and calls[1:] == [0, 0]
    # one Euler call per batch of oscillatory pieces; the time factor
    # never reaches it
    euler = out["counts"]["quadrature.euler_alternating"]
    assert 0 < euler[0] < calls[0] and euler[1:] == [0, 0]
    out = run_pass(str(SRC), "time-grid", "1", "0", counted=True)
    assert out["counts"]["quadrature.euler_alternating"] == [0, 0, 0]
