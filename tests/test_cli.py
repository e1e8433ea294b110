import functools
import io
import json
import random

import pytest

import bnkit.cli
from bnkit.cli import main
from bnkit.network import parse_bnet

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
    path.write_text("a, %sa\n" % ("!" * 3000))
    code, _, err = run("fixpoints", str(path))
    assert code == 2
    assert "nested too deeply" in err


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


def test_bad_within(model):
    code, _, err = run("fixpoints", "--within", "q=1", model)
    assert code == 1


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
