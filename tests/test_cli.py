import functools
import io
import json
import random

import pytest

import bnkit.cli
from bnkit.cli import main
from bnkit.network import parse_bnet
from nettools import layered_expression

EXAMPLE = "targets, factors\na, !b\nb, !a\nc, !(a & !b) & !c\n"


@pytest.fixture()
def model(tmp_path):
    path = tmp_path / "example.bnet"
    path.write_text(EXAMPLE)
    return str(path)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_trapspaces_min_default(model):
    code, out, _ = run("trapspaces", model)
    assert code == 0
    assert sorted(out.splitlines()) == ["01*", "100"]
    code, out2, _ = run("trapspaces", "--min", model)
    assert out2 == out


def test_trapspaces_max(model):
    code, out, _ = run("trapspaces", "--max", model)
    assert code == 0
    assert sorted(out.splitlines()) == ["01*", "10*"]


def test_trapspaces_min_max_exclusive(model):
    code, _, err = run("trapspaces", "--min", "--max", model)
    assert code == 1
    assert "usage error" in err


def test_fixpoints_limit_and_within(model):
    code, out, _ = run("fixpoints", model)
    assert (code, out) == (0, "100\n")
    code, out, _ = run("fixpoints", "--limit", "1", model)
    assert (code, out) == (0, "100\n")
    code, out, _ = run("fixpoints", "--within", "a=1", model)
    assert (code, out) == (0, "100\n")
    code, out, _ = run("fixpoints", "--within", "a=0", model)
    assert (code, out) == (0, "")


def test_json_output(model):
    code, out, _ = run("trapspaces", "--json", model)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    expect = [{"a": "0", "b": "1", "c": "*"}, {"a": "1", "b": "0", "c": "0"}]
    assert sorted(rows, key=str) == sorted(expect, key=str)


def test_reach(model):
    code, out, _ = run("reach", model, "000", "111")
    assert (code, out) == (0, "true\n")
    code, out, _ = run("reach", model, "010", "100")
    assert (code, out) == (0, "false\n")
    code, out, _ = run("reach", model, "010", "100", "--mode", "asynchronous")
    assert (code, out) == (0, "false\n")


def test_reach_mp_large_model(tmp_path):
    rng = random.Random(3)
    for family in ("inhibitor-dominant", "nested-canalizing-unate"):
        path = tmp_path / ("%s.bnet" % family)
        code, _, _ = run("generate", "--nodes", "300", "--seed", "1",
                         "--family", family, "--out", str(path))
        assert code == 0
        x, y = ("".join(rng.choice("01") for _ in range(300)) for _ in range(2))
        code, out, _ = run("reach", str(path), x, y, "--mode", "mp")
        assert code == 0 and out in ("true\n", "false\n")


def test_reach_boolean_mode_refuses_large_model(tmp_path):
    path = tmp_path / "big.bnet"
    assert run("generate", "--nodes", "300", "--seed", "1", "--out", str(path))[0] == 0
    x, y = "0" * 300, "1" * 300
    for mode in ("asynchronous", "synchronous", "general"):
        code, out, err = run("reach", str(path), x, y, "--mode", mode)
        assert (code, out) == (1, "")
        assert "too large" in err and "Traceback" not in err


def test_attractors(model):
    code, out, _ = run("attractors", model)
    assert (code, sorted(out.splitlines())) == (0, ["01*", "100"])
    code, out, _ = run("attractors", "--reachable-from", "010", model)
    assert (code, out) == (0, "01*\n")


def test_stg_json(model):
    code, out, _ = run("stg", model, "--mode", "synchronous", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["nodes"]) == 8
    outs = {}
    for src, _dst in obj["edges"]:
        outs[src] = outs.get(src, 0) + 1
    assert all(v == 1 for v in outs.values())


def test_stg_dot(model):
    code, out, _ = run("stg", model)
    assert code == 0
    assert out.startswith("digraph stg {")
    assert '"010" -> "011"' in out


def test_stg_projected_requires_mp(model):
    code, _, err = run("stg", model, "--projected")
    assert code == 1
    assert "usage error" in err
    code, out, _ = run("stg", model, "--projected", "--mode", "mp", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert ["000", "111"] in obj["edges"]


def test_influence(model):
    code, out, _ = run("influence", model, "--format", "json")
    assert code == 0
    edges = {tuple(e) for e in json.loads(out)["edges"]}
    assert edges == {
        ("b", "-", "a"),
        ("a", "-", "b"),
        ("a", "-", "c"),
        ("b", "+", "c"),
        ("c", "-", "c"),
    }


def test_empty_model(tmp_path):
    path = tmp_path / "empty.bnet"
    path.write_text("targets, factors\n")
    code, out, _ = run("trapspaces", str(path))
    assert (code, out) == (0, "\n")
    code, out, _ = run("stg", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["nodes"] == [""]


def test_exit_code_usage():
    code, _, err = run("nope")
    assert code == 1
    code, _, err = run("fixpoints")
    assert code == 1


def test_exit_code_parse_error(tmp_path):
    path = tmp_path / "bad.bnet"
    path.write_text("a, b &\n")
    code, _, err = run("fixpoints", str(path))
    assert code == 2
    assert "model error" in err
    code, _, _ = run("fixpoints", str(tmp_path / "missing.bnet"))
    assert code == 2


def test_deeply_nested_model_is_read(tmp_path):
    path = tmp_path / "deep.bnet"
    path.write_text("a, %sa\nb, %sb%s\n" % ("!" * 3000, "(" * 3000, ")" * 3000))
    code, out, err = run("fixpoints", str(path))
    assert (code, err) == (0, "")
    assert sorted(out.splitlines()) == ["00", "01", "10", "11"]


def test_model_with_byte_order_mark_and_crlf(tmp_path, model):
    # a UTF-8 byte-order mark is not part of the first component's name
    path = tmp_path / "bom.bnet"
    path.write_bytes(b"\xef\xbb\xbf" + EXAMPLE.replace("\n", "\r\n").encode())
    code, out, err = run("fixpoints", str(path))
    assert (code, out, err) == (0, "100\n", "")
    assert run("fixpoints", model) == (code, out, err)


def test_exit_code_undecodable_model(tmp_path):
    path = tmp_path / "latin1.bnet"
    path.write_bytes(b"a, \xff\n")
    code, out, err = run("fixpoints", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("model error: cannot read") and "utf-8" in err


FUZZ_TOKENS = (
    ["a", "b", "c", "x_1", "targets", "factors", "0", "1", "!", "&", "|"]
    + ["(", ")", ",", " ", "\n", "\r", "\r\n", "\t", "\x00", "#", "$", "-", "é"]
)


def test_fuzz_model_text_exits_0_or_2(tmp_path):
    # Random model texts, one of them not UTF-8: every run ends in a result
    # or a classified model error, never an exception or a usage error.
    rng = random.Random(808)
    paths = []
    for k in range(300):
        text = "".join(rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(0, 40)))
        if rng.random() < 0.3:
            text = "a, b\nb, a\n" + text
        path = tmp_path / ("fuzz%d.bnet" % k)
        path.write_bytes(text.encode("utf-8"))
        paths.append(path)
    paths[0].write_bytes(b"a, !a\n\xc3(\n")
    codes = []
    for path in paths:
        code, _out, err = run("fixpoints", str(path))
        assert code in (0, 2)
        assert (code == 2) == err.startswith("model error:")
        codes.append(code)
    assert 10 < codes.count(0) and 10 < codes.count(2)


def test_exit_code_normalization_error(tmp_path, monkeypatch):
    # the clause cap is lowered so that a small product of sums overflows it
    monkeypatch.setattr(
        bnkit.cli, "parse_bnet", functools.partial(parse_bnet, clause_cap=4)
    )
    path = tmp_path / "wide.bnet"
    path.write_text("a, (a | b) & (c | d) & (e | f)\nb, b\nc, c\nd, d\ne, e\nf, f\n")
    code, _, err = run("fixpoints", str(path))
    assert code == 2
    assert "model error" in err
    # f fits the cap, but closing it under consensus does not
    path.write_text("a, (a & !b) | (b & !c) | (c & !a)\nb, b\nc, c\n")
    code, _, err = run("fixpoints", str(path))
    assert code == 2
    assert "model error" in err


def test_exit_code_primes_work_cap(tmp_path):
    # under the default cap: f has 21 clauses, its primes overrun the work cap
    text, names = layered_expression(3, 6)
    path = tmp_path / "layered.bnet"
    path.write_text("".join("%s, %s\n" % (name, name) for name in names) + "f, " + text)
    code, out, err = run("fixpoints", str(path))
    assert (code, out) == (2, "")
    assert "model error" in err and "work cap" in err


def test_bad_within(model):
    code, _, err = run("fixpoints", "--within", "q=1", model)
    assert code == 1


BENCH = ("bench", "--suite", ".", "--problem", "fix")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("fixpoints", "--within", "01", "MODEL"), "expected 3 symbols, got 2"),
        (("trapspaces", "--within", "a=1,a=0", "MODEL"), "component 'a' given twice"),
        (
            ("attractors", "--reachable-from", "012", "MODEL"),
            "expected a binary state of length 3",
        ),
        (("reach", "MODEL", "000", "11"), "expected a binary state of length 3"),
        (("stg", "MODEL", "--restrict", "a=2"), "invalid value '2' for 'a'"),
        (("generate", "--nodes", "0"), "n must be >= 1"),
        (BENCH + ("--jobs", "-3"), "--jobs must be >= 1"),
        (BENCH + ("--jobs", "0"), "--jobs must be >= 1"),
        (BENCH + ("--timeout", "-1"), "--timeout must be > 0"),
        (BENCH + ("--timeout", "0"), "--timeout must be > 0"),
        (BENCH + ("--timeout", "nan"), "--timeout must be > 0"),
        (("generate", "--nodes", "5", "--gamma", "nan"), "gamma must be >= 0"),
    ],
)
def test_usage_error_message(model, argv, message):
    code, out, err = run(*(model if arg == "MODEL" else arg for arg in argv))
    assert (code, out, err) == (1, "", "usage error: %s\n" % message)


def test_unwritable_out_is_a_usage_error(tmp_path, model):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "m1.bnet").write_text(EXAMPLE)
    missing = tmp_path / "missing"
    for argv, dest in (
        (("generate", "--nodes", "5"), missing / "x.bnet"),
        (("bench", "--suite", str(suite), "--problem", "fix"), missing / "x.tsv"),
    ):
        code, out, err = run(*argv, "--out", str(dest))
        assert (code, out) == (1, "")
        assert err == "usage error: [Errno 2] No such file or directory: %r\n" % str(dest)


def test_generate_deterministic(tmp_path):
    code, out1, _ = run("generate", "--nodes", "20", "--seed", "4")
    code2, out2, _ = run("generate", "--nodes", "20", "--seed", "4")
    assert code == code2 == 0
    assert out1 == out2
    dest = tmp_path / "gen.bnet"
    code, out, _ = run("generate", "--nodes", "20", "--seed", "4", "--out", str(dest))
    assert (code, out) == (0, "")
    assert dest.read_text() == out1


def test_generate_validation():
    code, _, err = run("generate", "--nodes", "0")
    assert code == 1


def test_bench_cli(tmp_path, model):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "m1.bnet").write_text(EXAMPLE)
    (suite / "m2.bnet").write_text("a, a\n")
    code, out, _ = run("bench", "--suite", str(suite), "--problem", "fix")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("m1.bnet\tfix\t")
    assert lines[0].endswith("ok")
    assert "<0.5s" in out and "<1h" in out
    code, _, err = run("bench", "--suite", str(tmp_path / "nope"), "--problem", "fix")
    assert code == 1
