from tests.compare_outcomes import compare, identical, main, parse


def test_parse_reads_plain_and_numpy_scalar_reprs():
    plain = "time-grid s1 r0 #17 (0.25+0.11j) 8.48e-11 'contour' 25"
    wrapped = "time-grid s1 r0 #17 (0.25+0.11j) np.float64(8.48e-11) 'contour' 25"
    want = ("time-grid s1 r0 #17", "answer", 0.25 + 0.11j, 8.48e-11, "contour", 25)
    assert parse(plain) == want
    assert parse(wrapped) == want
    raw = "E0.15 0.5j ml_contour np.complex128(1.5+0.7j) np.float64(4e-10) 25"
    assert parse(raw) == ("E0.15 0.5j ml_contour", "answer", 1.5 + 0.7j, 4e-10,
                          None, 25)


def test_a_numpy_scalar_repr_alone_is_no_change(capsys):
    old = ["t (1+0j) np.float64(1e-10) 'contour' 25"]
    new = ["t (1+0j) 1e-10 'contour' 25"]
    assert compare(old, new)
    assert "worst |dvalue| / (err_a + err_b) over them: 0" in capsys.readouterr().out


def test_work_only_changes_are_summarised_not_listed(capsys):
    old = ["a (1+0j) 1e-10 'contour' 100", "b (2+0j) 1e-10 'contour' 50",
           "c ValueError gone"]
    new = ["a (1+0j) 1e-10 'contour' 101", "b (2+1e-10j) 1e-10 'contour' 60",
           "c ValueError gone"]
    assert not compare(old, new)
    out = capsys.readouterr().out
    assert "0 with a changed tag, method or class:" in out
    assert "2 answers with a changed work" in out
    assert "summed work 150 -> 161, largest relative change 0.2:" in out
    assert "by method: contour 2" in out
    assert "worst |dvalue| / (err_a + err_b) over them: 0.5" in out


def test_identical_flags_every_parsed_difference_but_numpy_wrapping(capsys, tmp_path):
    base = ["a (1+0j) 1e-10 'contour' 25", "b (0.5-2j) 3e-12 'series' 40",
            "c NonConvergence H series error estimate 2e-09 misses rel_tol"]
    same = ["a (1+0j) np.float64(1e-10) 'contour' 25", base[1], base[2]]
    assert identical(base, same)
    assert "0 of 3 outcomes differ in a parsed field" in capsys.readouterr().out
    # one last-bit change in each field, one at a time
    changes = [
        (1, "b (0.5000000000000001-2j) 3e-12 'series' 40"),
        (1, "b (0.5-2j) 3.0000000000000004e-12 'series' 40"),
        (1, "b (0.5-2j) 3e-12 'contour' 40"),
        (1, "b (0.5-2j) 3e-12 'series' 41"),
        (1, "b (-0.5-2j) 3e-12 'series' 40"),
        (2, "c DegeneratePoles H series error estimate 2e-09 misses rel_tol"),
        (2, "c NonConvergence H series error estimate 3e-09 misses rel_tol"),
    ]
    for pos, line in changes:
        new = list(base)
        new[pos] = line
        assert not identical(base, new), line
        assert "1 of 3 outcomes differ in a parsed field" in capsys.readouterr().out
    # value and err_est alone do not fail the summary; --identical does
    old_file, new_file = tmp_path / "old.txt", tmp_path / "new.txt"
    old_file.write_text("\n".join(base) + "\n")
    new = list(base)
    new[1] = changes[0][1]
    new_file.write_text("\n".join(new) + "\n")
    assert main(["compare_outcomes.py", str(old_file), str(new_file)]) == 0
    assert main(["compare_outcomes.py", "--identical", str(old_file), str(new_file)]) == 1
    new_file.write_text("\n".join(same) + "\n")
    assert main(["compare_outcomes.py", "--identical", str(old_file), str(new_file)]) == 0


def test_err_est_ratios_over_the_changed_answers(capsys):
    old = ["a (1+0j) 1e-10 'series' 30", "b (2+0j) 1e-10 'series' 40",
           "c (3+0j) 1e-10 'series' 50", "d (4+0j) 1e-10 'contour' 25",
           "e ValueError gone"]
    new = ["a (1+0j) 5e-11 'series' 30", "b (2+0j) 2.5e-10 'series' 40",
           "c (3+0j) 3e-10 'series' 50", "d (4.0000000001+0j) 1e-10 'contour' 25",
           "e ValueError gone"]
    assert compare(old, new)
    out = capsys.readouterr().out
    assert "err_est new/old over the 3 changed: median 2.5, 2 above 2, largest 3:" in out
    assert "  + c (3+0j) 3e-10 'series' 50" in out
