import random
from itertools import product

import pytest

from bnkit import Cube, closure, eval_on_cube, is_trap_space, parse_bnet, vertices
from bnkit.cubes import CubeError, eval_mask
from bnkit.expressions import parse_expression
from bnkit.network import normalize
from nettools import eval_oracle, image_table, oracle_is_trap, random_expression, random_network

EXAMPLE = "targets, factors\na, !b\nb, !a\nc, !(a & !b) & !c\n"


@pytest.fixture(scope="module")
def example():
    return parse_bnet(EXAMPLE)


def test_parse_and_format():
    names = ("a", "b", "c")
    assert str(Cube.parse("01*", names)) == "01*"
    assert str(Cube.parse("a=1,c=0", names)) == "1*0"
    with pytest.raises(CubeError):
        Cube.parse("01", names)
    with pytest.raises(CubeError):
        Cube.parse("d=1", names)
    with pytest.raises(CubeError, match="given twice"):
        Cube.parse("a=1,a=0", names)


def test_contains():
    c = Cube.parse("01*", ("a", "b", "c"))
    assert c.contains((0, 1, 1))
    assert not c.contains((1, 1, 1))
    assert Cube.full(3).contains((1, 0, 1))
    with pytest.raises(CubeError):
        c.contains((0, 1))


def test_subset():
    names = ("a", "b", "c")
    assert Cube.parse("100", names).subset(Cube.parse("10*", names))
    assert not Cube.parse("10*", names).subset(Cube.parse("100", names))
    assert Cube.parse("0*1", names).subset(Cube.full(3))


def test_intersect():
    names = ("a", "b", "c")
    assert Cube.parse("01*", names).intersect(Cube.parse("*1*", names)) == Cube.parse(
        "01*", names
    )
    assert Cube.parse("100", names).intersect(Cube.parse("01*", names)) is None
    c = Cube.parse("1*0", names)
    assert c.intersect(c) == c


def test_intersect_matches_vertex_sets():
    rng = random.Random(3)
    for _ in range(200):
        a = Cube(tuple(rng.choice((0, 1, 2)) for _ in range(4)))
        b = Cube(tuple(rng.choice((0, 1, 2)) for _ in range(4)))
        va = set(vertices(a))
        vb = set(vertices(b))
        both = a.intersect(b)
        if both is None:
            assert not (va & vb)
        else:
            assert set(vertices(both)) == va & vb


def test_vertices():
    names = ("a", "b", "c")
    assert list(vertices(Cube.parse("01*", names))) == [(0, 1, 0), (0, 1, 1)]
    assert list(vertices(Cube.parse("100", names))) == [(1, 0, 0)]
    with pytest.raises(CubeError):
        list(vertices(Cube.full(2), cap=1))


def test_eval_on_cube_worked_example(example):
    f_c = example.functions[2]
    assert eval_on_cube(f_c, Cube.parse("0*0", example.names)) == {1}
    assert eval_on_cube(f_c, Cube.full(3)) == {0, 1}


def test_eval_on_cube_xor_and_constants():
    net = parse_bnet("a, a\nb, b\nv, (a & !b) | (!a & b)\nt, 1\nf, 0")
    xor = net.functions[2]
    assert not xor.unate
    assert eval_on_cube(xor, Cube.full(5)) == {0, 1}
    assert eval_on_cube(xor, Cube.parse("10***", net.names)) == {1}
    assert eval_on_cube(xor, Cube.parse("11***", net.names)) == {0}
    assert eval_on_cube(net.functions[3], Cube.full(5)) == {1}
    assert eval_on_cube(net.functions[4], Cube.parse("00000", net.names)) == {0}


def test_eval_on_cube_oracle_randomized():
    rng = random.Random(5)
    names = ["v%d" % i for i in range(8)]
    index = {n: i for i, n in enumerate(names)}
    nonunate = 0
    for _ in range(400):
        fn = normalize(parse_expression(random_expression(rng, names)), index)
        cube = Cube(tuple(rng.choice((0, 1, 2)) for _ in names))
        assert eval_on_cube(fn, cube) == eval_oracle(fn, cube)
        nonunate += not fn.unate
    assert nonunate > 50


def test_closure_worked_example(example):
    names = example.names
    assert str(closure(example, Cube.parse("010", names))) == "01*"
    assert str(closure(example, Cube.parse("100", names))) == "100"
    assert str(closure(example, Cube.parse("000", names))) == "***"


def test_closure_properties():
    for seed in range(30):
        net = random_network(seed, 5)
        rng = random.Random(seed + 1000)
        cubes = [Cube(tuple(rng.choice((0, 1, 2)) for _ in range(5))) for _ in range(20)]
        for c in cubes:
            closed = closure(net, c)
            assert c.subset(closed)  # extensive
            assert closure(net, closed) == closed  # idempotent
            assert is_trap_space(net, closed)
        for a in cubes[:8]:
            for b in cubes[:8]:
                if a.subset(b):
                    assert closure(net, a).subset(closure(net, b))  # monotone


def test_trap_space_iff_closure_fixed():
    for seed in range(12):
        net = random_network(seed, 4)
        table = image_table(net)
        for values in product((0, 1, 2), repeat=4):
            cube = Cube(values)
            trap = is_trap_space(net, cube)
            assert trap == (closure(net, cube) == cube)
            assert trap == oracle_is_trap(net, cube, table)


def test_trap_space_examples(example):
    assert is_trap_space(example, Cube.parse("01*", example.names))
    assert is_trap_space(example, Cube.full(3))
    assert not is_trap_space(example, Cube.parse("000", example.names))


def test_trap_intersection_closed():
    for seed in range(15):
        net = random_network(seed, 5)
        table = image_table(net)
        traps = [
            Cube(v)
            for v in product((0, 1, 2), repeat=5)
            if oracle_is_trap(net, Cube(v), table)
        ]
        rng = random.Random(seed)
        for _ in range(40):
            a, b = rng.choice(traps), rng.choice(traps)
            both = a.intersect(b)
            if both is not None:
                assert is_trap_space(net, both)


def test_eval_mask_nonunate_uses_bdd():
    net = parse_bnet("a, a\nb, b\nv, (a & !b) | (!a & b)")
    fn = net.functions[2]
    assert fn.bdd is not None
    # false side on a mixed cube must come from the BDD path search
    assert eval_mask(fn, (2, 2, 2)) == 3
    assert eval_mask(fn, (1, 0, 2)) == 2
