from bnkit import bench


def write_suite(tmp_path):
    (tmp_path / "a.bnet").write_text("targets, factors\nx, !y\ny, !x\n")
    (tmp_path / "b.bnet").write_text("x, x & y\ny, x | y\n")
    (tmp_path / "broken.bnet").write_text("x, !!\n")
    return tmp_path


def test_run_suite_statuses(tmp_path):
    records = bench.run_suite(write_suite(tmp_path), "min", timeout=30.0)
    assert [r.model for r in records] == ["a.bnet", "b.bnet", "broken.bnet"]
    assert [r.status for r in records] == ["ok", "ok", "error"]
    assert all(r.problem == "min" for r in records)
    assert all(r.seconds >= 0 for r in records)


def test_deeply_nested_model_is_an_error_row(tmp_path):
    (tmp_path / "deep.bnet").write_text("x, %sx\n" % ("!" * 3000))
    (tmp_path / "ok.bnet").write_text("x, x\n")
    records = bench.run_suite(tmp_path, "fix", timeout=30.0)
    assert [r.status for r in records] == ["error", "ok"]


def test_all_problems(tmp_path):
    (tmp_path / "m.bnet").write_text("x, !y\ny, x\n")
    for problem in bench.PROBLEMS:
        rec = bench.run_model(tmp_path / "m.bnet", problem, 30.0)
        assert rec.status == "ok"


def test_forced_timeout(tmp_path):
    # a zero-second budget expires before the solve starts
    (tmp_path / "m.bnet").write_text("x, !y\ny, x\n")
    rec = bench.run_model(tmp_path / "m.bnet", "fix", 0.0)
    assert rec.status == "timeout"


def test_tsv_format(tmp_path):
    records = [
        bench.BenchRecord("m.bnet", "fix", 0.25, "ok"),
        bench.BenchRecord("n.bnet", "fix", 1.0, "timeout"),
    ]
    tsv = bench.to_tsv(records)
    assert tsv == "m.bnet\tfix\t0.250000\tok\nn.bnet\tfix\t1.000000\ttimeout\n"
    assert bench.to_tsv([]) == ""


def test_cumulative_summary():
    records = [
        bench.BenchRecord("a", "fix", 0.1, "ok"),
        bench.BenchRecord("b", "fix", 5.0, "ok"),
        bench.BenchRecord("c", "fix", 700.0, "ok"),
        bench.BenchRecord("d", "fix", 0.1, "timeout"),
        bench.BenchRecord("e", "fix", 0.1, "error"),
    ]
    assert bench.cumulative_summary(records) == [1, 1, 2, 2, 2, 3]
    summary = bench.format_summary(records)
    assert bench.THRESHOLD_LABELS == ("<0.5s", "<2s", "<10s", "<1min", "<10min", "<1h")
    for label in bench.THRESHOLD_LABELS:
        assert label in summary
    assert "completed" in summary


def test_jobs_parallel(tmp_path):
    suite = write_suite(tmp_path)
    serial = bench.run_suite(suite, "fix", 30.0)
    parallel = bench.run_suite(suite, "fix", 30.0, jobs=2)
    assert [(r.model, r.status) for r in serial] == [
        (r.model, r.status) for r in parallel
    ]
