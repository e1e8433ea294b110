import random
from itertools import product

import pytest

from bnkit import (
    Cube,
    build_stg,
    closure,
    eval_on_cube,
    fixed_points,
    is_trap_space,
    maximal_trap_spaces,
    minimal_trap_spaces,
    parse_bnet,
    vertices,
)
from bnkit.cubes import CubeError, eval_mask
from nettools import (
    eval_oracle,
    image_table,
    is_unate,
    oracle_is_trap,
    random_expression,
    random_network,
    read_function,
)

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
    with pytest.raises(CubeError, match="expected name=value in 'b'"):
        Cube.parse("a=1,b", names)
    assert str(Cube.parse("a=1,,b=0", names)) == "10*"
    with pytest.raises(CubeError, match=r"cube symbols must be 0, 1 or \*"):
        Cube.parse("0x", ("a", "b"))


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
    with pytest.raises(CubeError, match="length mismatch"):
        Cube.full(3).subset(Cube.full(2))


def test_intersect():
    names = ("a", "b", "c")
    assert Cube.parse("01*", names).intersect(Cube.parse("*1*", names)) == Cube.parse(
        "01*", names
    )
    assert Cube.parse("100", names).intersect(Cube.parse("01*", names)) is None
    c = Cube.parse("1*0", names)
    assert c.intersect(c) == c
    with pytest.raises(CubeError, match="length mismatch"):
        c.intersect(Cube.full(2))


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


@pytest.mark.parametrize(
    "values", [(0, 5, 2), ("0", 1, 2), (0, None, 1), (0, 1.5), (-1,)]
)
def test_cube_values_are_checked(example, values):
    # a cube is refused when it is made, so no consumer sees a bad value
    for use in (
        lambda cube: list(fixed_points(example, within=cube)),
        lambda cube: list(minimal_trap_spaces(example, within=cube)),
        lambda cube: list(maximal_trap_spaces(example, within=cube)),
        lambda cube: closure(example, cube),
        lambda cube: build_stg(example, "asynchronous", cube),
    ):
        with pytest.raises(CubeError, match="cube values must be"):
            use(Cube(values))


class _Index:
    """An integer-like value that only offers `__index__`."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_cube_values_are_plain_ints(example):
    # a float equal to 0, 1 or 2 is not an index: refused, not stored
    for values in ((1.0, 2), (0, 1, 2.0)):
        with pytest.raises(CubeError, match="cube values must be"):
            Cube(values)
    cube = Cube([_Index(0), _Index(2), True])
    assert cube.values == (0, 2, 1)
    assert all(type(v) is int for v in cube.values)
    assert str(cube) == "0*1" and cube == Cube.parse("0*1", example.names)
    assert closure(example, cube) == closure(example, Cube((0, 2, 1)))


def test_cube_takes_numpy_ints(example):
    np = pytest.importorskip("numpy")
    cube = Cube(tuple(np.array([1, 2, 0], dtype=np.int64)))
    assert cube.values == (1, 2, 0) and all(type(v) is int for v in cube.values)
    assert str(cube) == "1*0"
    assert closure(example, cube) == closure(example, Cube((1, 2, 0)))
    with pytest.raises(CubeError):
        Cube(tuple(np.array([1.0, 2.0])))


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
    assert not is_unate(xor)
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
        fn = read_function(random_expression(rng, names), index)
        cube = Cube(tuple(rng.choice((0, 1, 2)) for _ in names))
        assert eval_on_cube(fn, cube) == eval_oracle(fn, cube)
        nonunate += not is_unate(fn)
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


def test_eval_mask_nonunate_uses_primes():
    net = parse_bnet("a, a\nb, b\nv, (a & !b) | (!a & b)")
    fn = net.functions[2]
    assert fn.primes == fn.dnf
    # false side on a mixed cube: no prime is fully fixed true there
    assert eval_mask(fn, (2, 2, 2)) == 3
    assert eval_mask(fn, (1, 0, 2)) == 2
    # f is b, but its DNF is not unate and no clause is fully fixed true
    # on *1*: only the prime b shows that value 0 is unreachable there
    net = parse_bnet("a, a\nb, b\nv, (a & b) | (!a & b)")
    fn = net.functions[2]
    assert not is_unate(fn)
    assert fn.primes == (((1, 1),),)
    assert eval_mask(fn, (2, 1, 2)) == 2


def test_cube_length_must_match_network(example):
    # example has 3 components; a shorter or longer cube is refused
    with pytest.raises(CubeError, match="expected 3 values, got 2"):
        is_trap_space(example, Cube((1, 0)))
    with pytest.raises(CubeError, match="expected 3 values, got 4"):
        is_trap_space(example, Cube((0, 1, 0, 1)))
    with pytest.raises(CubeError, match="expected 3 values, got 2"):
        closure(example, Cube((1, 0)))
    with pytest.raises(CubeError, match="expected 3 values, got 4"):
        closure(example, Cube((0, 1, 0, 1)))
