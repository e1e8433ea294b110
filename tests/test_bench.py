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


def test_deeply_nested_model_is_an_ok_row(tmp_path):
    (tmp_path / "deep.bnet").write_text("x, %sx\n" % ("!" * 3000))
    (tmp_path / "ok.bnet").write_text("x, x\n")
    records = bench.run_suite(tmp_path, "fix", timeout=30.0)
    assert [r.status for r in records] == ["ok", "ok"]


def test_all_problems(tmp_path, capsys):
    (tmp_path / "m.bnet").write_text("x, !y\ny, x\n")
    for problem in bench.PROBLEMS:
        rec = bench.run_model(tmp_path / "m.bnet", problem, 30.0)
        assert rec.status == "ok"
    # an unknown problem is a classified error: no traceback is printed
    assert bench.run_model(tmp_path / "m.bnet", "all", 30.0).status == "error"
    assert capsys.readouterr().err == ""


def test_model_with_byte_order_mark_is_an_ok_row(tmp_path):
    (tmp_path / "m.bnet").write_bytes(b"\xef\xbb\xbfx, !y\r\ny, x\r\n")
    assert bench.run_model(tmp_path / "m.bnet", "fix", 30.0).status == "ok"


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


def test_jobs_parallel(tmp_path, monkeypatch):
    suite = write_suite(tmp_path)
    serial = bench.run_suite(suite, "fix", 30.0)
    methods = []
    pool = bench.concurrent.futures.ProcessPoolExecutor

    def spied(*args, **kwargs):
        methods.append(kwargs["mp_context"].get_start_method())
        return pool(*args, **kwargs)

    monkeypatch.setattr(bench.concurrent.futures, "ProcessPoolExecutor", spied)
    parallel = bench.run_suite(suite, "fix", 30.0, jobs=2)
    assert methods == ["spawn"]
    assert [(r.model, r.status) for r in serial] == [
        (r.model, r.status) for r in parallel
    ]
    assert [r.status for r in parallel] == ["ok", "ok", "error"]


def test_unexpected_error_is_an_error_row(tmp_path, monkeypatch):
    def broken(net, limit=None, deadline=None):
        raise RuntimeError("solver bug")

    monkeypatch.setitem(bench.PROBLEMS, "fix", broken)
    records = bench.run_suite(write_suite(tmp_path), "fix", 30.0, jobs=1)
    assert [r.status for r in records] == ["error", "error", "error"]
