from tests.compare_outcomes import compare, parse


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
