import pytest

from bnkit import GenSpec, generate_bnet, parse_bnet
from bnkit.solver import fixed_points
from nettools import is_unate


def test_seed_determinism():
    a = generate_bnet(GenSpec(n=50, seed=7))
    b = generate_bnet(GenSpec(n=50, seed=7))
    assert a == b
    c = generate_bnet(GenSpec(n=50, seed=8))
    assert a != c


def test_output_parses():
    for family in ("inhibitor-dominant", "nested-canalizing-unate"):
        for n in (1, 5, 40):
            text = generate_bnet(GenSpec(n=n, family=family, seed=3))
            net = parse_bnet(text)
            assert net.n == n


def test_inhibitor_dominant_unate():
    net = parse_bnet(generate_bnet(GenSpec(n=60, seed=11)))
    assert all(is_unate(fn) for fn in net.functions)


def test_nested_canalizing_unate():
    net = parse_bnet(generate_bnet(GenSpec(n=60, family="nested-canalizing-unate", seed=11)))
    assert all(is_unate(fn) for fn in net.functions)


def test_degrees_bounded():
    net = parse_bnet(generate_bnet(GenSpec(n=200, seed=1)))
    for fn in net.functions:
        assert 1 <= len(fn.support) <= 32


def test_gamma_shapes_degrees():
    flat = parse_bnet(generate_bnet(GenSpec(n=300, gamma=0.1, seed=2)))
    steep = parse_bnet(generate_bnet(GenSpec(n=300, gamma=3.5, seed=2)))
    mean = lambda net: sum(len(fn.support) for fn in net.functions) / net.n
    assert mean(steep) < mean(flat)


def test_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n=0)
    with pytest.raises(ValueError):
        GenSpec(n=5, gamma=-1.0)
    with pytest.raises(ValueError, match="gamma must be >= 0"):
        GenSpec(n=5, gamma=float("nan"))  # random.choices refuses nan weights
    with pytest.raises(ValueError):
        GenSpec(n=5, family="nope")


def test_solvable_end_to_end():
    net = parse_bnet(generate_bnet(GenSpec(n=30, seed=5)))
    for _ in fixed_points(net, limit=1):
        pass
