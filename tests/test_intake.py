"""Model intake: exact error messages, the same networks as a reference
per-line path (tests/nettools.py) builds, the collector left as intake
found it and one shared object per literal."""

import functools
import gc
import random

import pytest

from bnkit import GenSpec, export_bnet, generate_bnet, parse_bnet, set_function
from bnkit.expressions import ExprSyntaxError, parse_expression
from bnkit.generator import FAMILIES
from bnkit.network import NetworkError, NormalizationError, ParseError
from nettools import (
    Tree,
    oracle_suite,
    random_bnet_text,
    random_expression,
    random_nested_expression,
    read_function,
    reference_intake,
    reference_normalize,
    reference_parse,
    variables,
)

BASE = "a, a\nb, b\nc, c\n# a comment and a blank line\n\n"
OVERFLOW = "(a | b) & (a | c) & (b | c)"  # 4 clauses before pruning: over a cap of 2

# (expression, clause cap, message); the model puts the expression on line 6
ERRORS = [
    ("a $ b", None, "unexpected character '$' (line 1, column 3)"),
    ("a & | b", None, "unexpected token '|' (line 1, column 5)"),
    ("a b", None, "unexpected token 'b' (line 1, column 3)"),
    ("a & !", None, "unexpected end of expression (line 1, column 6)"),
    ("a & (b", None, "expected ')' (line 1, column 7)"),
    ("(a | (b & c)", None, "expected ')' (line 1, column 13)"),
    ("a & Or", None, "reserved word 'Or' used as identifier (line 1, column 5)"),
    ("   ", None, "empty expression (line 1, column 1)"),
    ("zz | b | yy", None, "undeclared component 'yy' referenced"),
    ("yy & " + OVERFLOW, 2, "undeclared component 'yy' referenced"),
    # the overflow comes before the name in the walk, yet the name is reported
    ("(%s) & zz" % OVERFLOW, 2, "undeclared component 'zz' referenced"),
]


def _cap(cap):
    return {} if cap is None else {"clause_cap": cap}


@pytest.mark.parametrize("text, cap, message", ERRORS)
def test_parse_bnet_error_messages(text, cap, message):
    with pytest.raises(ParseError) as exc:
        parse_bnet(BASE + "d, %s\n" % text, **_cap(cap))
    assert str(exc.value) == "line 6: " + message
    assert exc.value.line == 6


@pytest.mark.parametrize("text, cap, message", ERRORS)
def test_set_function_error_messages(text, cap, message):
    kind = NetworkError if message.startswith("undeclared") else ExprSyntaxError
    with pytest.raises(kind) as exc:
        set_function(parse_bnet(BASE), "d", text, **_cap(cap))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text, cap, message",
    [e for e in ERRORS if e[2].startswith("undeclared")]
    + [("a | q", None, "undeclared component 'q' referenced")],
)
def test_normalize_reports_undeclared_names(text, cap, message):
    with pytest.raises(NetworkError) as exc:
        read_function(text, {"a": 0, "b": 1, "c": 2}, **_cap(cap))
    assert str(exc.value) == message


def test_error_position_on_a_later_line():
    with pytest.raises(ExprSyntaxError) as exc:
        set_function(parse_bnet(BASE), "a", "b &\n  & c")
    assert str(exc.value) == "unexpected token '&' (line 2, column 3)"
    assert (exc.value.line, exc.value.column) == (2, 3)
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expression("a |\r\n\n  !(b c)\t", Tree)
    assert str(exc.value) == "expected ')' (line 3, column 7)"


def test_cap_overflow_without_undeclared_names():
    with pytest.raises(NormalizationError):
        parse_bnet(BASE + "d, %s\n" % OVERFLOW, clause_cap=2)
    with pytest.raises(NormalizationError):
        set_function(parse_bnet(BASE), "d", OVERFLOW, clause_cap=2)


# tokens of random lines: declared names, undeclared ones, operator words
# in mixed case, symbols, constants, a character no token starts with and
# a line break
FUZZ_TOKENS = (
    ["a", "b", "c", "d"] * 4
    + ["zz", "yy", "q", "_"]
    + ["and", "AND", "Or", "or", "not", "NoT"]
    + ["!", "!", "&", "&", "|", "|", "(", "(", ")", ")"]
    + ["0", "1", "true", "FALSE", "$", "\n"]
)


def _fuzz_outcome(text, base, index):
    """What editing d of `base` to `text` gives: the function's triple, or
    the error's type and message."""
    try:
        fn = set_function(base, "d", text).functions[index["d"]]
    except (ExprSyntaxError, NetworkError) as exc:
        return type(exc), str(exc)
    return fn.dnf, fn.primes, fn.support


def _reference_outcome(text, index):
    """The outcome the reference gives: its syntax error, else the first
    undeclared name in sorted order, else its function."""
    try:
        tree = reference_parse(text)
    except ExprSyntaxError as exc:
        return ExprSyntaxError, str(exc)
    missing = variables(tree) - index.keys()
    if missing:
        return NetworkError, "undeclared component %r referenced" % min(missing)
    return reference_normalize(tree, index)


def test_intake_errors_match_reference_on_random_token_strings():
    # the error path scans a failed line a second time for its names; the
    # errors it reports, and the functions of lines that build, are the
    # reference's
    rng = random.Random(27)
    base = parse_bnet(BASE + "d, d\n")
    index = dict(base.index)
    kinds = {ExprSyntaxError: 0, NetworkError: 0, "built": 0}
    for _ in range(5000):
        words = [rng.choice(FUZZ_TOKENS) for _ in range(rng.randint(1, 8))]
        text = rng.choice([" ", " ", ""]).join(words)
        expected = _reference_outcome(text, index)
        assert _fuzz_outcome(text, base, index) == expected, text
        kinds[expected[0] if isinstance(expected[0], type) else "built"] += 1
    assert min(kinds.values()) >= 100, kinds


def _assert_same_intake(text):
    net = parse_bnet(text)
    names, functions, dependents, occ_count = reference_intake(text)
    assert net.names == names
    assert [(fn.dnf, fn.primes, fn.support) for fn in net.functions] == (
        functions
    )
    assert net.dependents == dependents
    assert net.occ_count == occ_count


@pytest.mark.parametrize("name", ["_", "__"])
def test_underscore_only_names(name):
    # the grammar's names are [A-Za-z0-9_]+: underscores alone make one
    text = "a, %s | a\n%s, !a & %s\n" % (name, name, name)
    _assert_same_intake(text)
    net = parse_bnet(text)
    edited = set_function(net, name, "a")
    assert edited.functions[1].dnf == (((0, 1),),)
    added = set_function(parse_bnet("a, a\n"), name, "!%s | a" % name)
    assert added.names == ("a", name)
    for model in (net, edited, added):
        exported = export_bnet(model)
        assert export_bnet(parse_bnet(exported)) == exported


@pytest.mark.parametrize(
    "name, message",
    [
        ("", "invalid component name ''"),
        ("\u00e9", "invalid component name '\u00e9'"),
        ("x\u00b2", "invalid component name 'x\u00b2'"),
        ("a-b", "invalid component name 'a-b'"),
        ("a b", "invalid component name 'a b'"),
        ("NOT", "reserved word 'NOT' used as component name"),
        ("1", "reserved word '1' used as component name"),
    ],
)
def test_bad_component_names_are_refused(name, message):
    with pytest.raises(ParseError) as exc:
        parse_bnet("a, a\n%s, a\n" % name)
    assert str(exc.value) == "line 2: " + message
    with pytest.raises(NetworkError) as exc:
        set_function(parse_bnet("a, a\n"), name, "a")
    assert str(exc.value) == message


@pytest.mark.parametrize("family", FAMILIES)
def test_intake_matches_reference_on_generated_models(family):
    _assert_same_intake(generate_bnet(GenSpec(n=1000, family=family, seed=5)))


def test_intake_matches_reference_on_the_oracle_suite():
    for seed, net in oracle_suite():
        _assert_same_intake(random_bnet_text(seed, net.n))


def test_intake_matches_reference_on_random_lines():
    rng = random.Random(16)
    names = ["v%d" % i for i in range(5)]
    lines = [random_expression(rng, names) for _ in range(500)]
    for line in lines:
        assert parse_expression(line, Tree) == reference_parse(line)
    for start in range(0, len(lines), len(names)):
        chunk = lines[start:start + len(names)]
        _assert_same_intake(
            "".join("%s, %s\n" % pair for pair in zip(names, chunk))
        )


def test_intake_matches_reference_on_nested_lines():
    # negated groups at every depth: the scanner's polarity, both entry points
    rng = random.Random(22)
    names = ["v%d" % i for i in range(5)]
    index = {name: i for i, name in enumerate(names)}
    lines = [random_nested_expression(rng, names) for _ in range(2000)]
    for line in lines:
        assert parse_expression(line, Tree) == reference_parse(line)
    for start in range(0, len(lines), len(names)):
        chunk = lines[start:start + len(names)]
        _assert_same_intake(
            "".join("%s, %s\n" % pair for pair in zip(names, chunk))
        )
    base = parse_bnet("".join("%s, %s\n" % (name, name) for name in names))
    for i, line in enumerate(lines):
        name = names[i % len(names)]
        fn = set_function(base, name, line).functions[index[name]]
        expected = reference_normalize(reference_parse(line), index)
        assert (fn.dnf, fn.primes, fn.support) == expected


LEAF_BASE = "a, a\nb, b\n12, !a\nx_1, b\n"
LEAF_INDEX = {"a": 0, "b": 1, "12": 2, "x_1": 3, "d": 4}
UNDECLARED_ZZ = (NetworkError, "undeclared component 'zz' referenced")


def _syntax(message):
    return ExprSyntaxError, message + " (line 1, column 1)"


# one-name spellings: each builds as the reference does, or fails as before
LEAF_LINES = [
    ("a", None),
    ("!a", None),
    ("d", None),  # the line's own component
    ("!!a", None),
    ("! a", None),
    ("(a)", None),
    ("!(a)", None),
    ("12", None),
    ("!x_1", None),
    ("zz", UNDECLARED_ZZ),
    ("!zz", UNDECLARED_ZZ),
    ("and", _syntax("reserved word 'and' used as identifier")),
    ("!TRUE", None),
    ("0", None),
    ("1", None),
    ("\u00e9", _syntax("unexpected character '\u00e9'")),
    ("NOT", (ExprSyntaxError, "unexpected end of expression (line 1, column 4)")),
]


@pytest.mark.parametrize("entry", ["parsed", "edited", "added"])
@pytest.mark.parametrize("text, error", LEAF_LINES)
def test_one_name_lines_match_reference(text, error, entry):
    # d, the fifth component, read from the text in a model, as an edit of
    # an existing d and as a new component
    build = {
        "parsed": lambda: parse_bnet(LEAF_BASE + "d, %s\n" % text),
        "edited": lambda: set_function(parse_bnet(LEAF_BASE + "d, b\n"), "d", text),
        "added": lambda: set_function(parse_bnet(LEAF_BASE), "d", text),
    }[entry]
    if error is None:
        assert parse_expression(text, Tree) == reference_parse(text)
        fn = build().functions[4]
        expected = reference_normalize(reference_parse(text), LEAF_INDEX)
        assert (fn.dnf, fn.primes, fn.support) == expected
        assert fn.primes is fn.dnf
        return
    kind, message = error
    if entry == "parsed":
        kind, message = ParseError, "line 5: " + message
    with pytest.raises(kind) as exc:
        build()
    assert str(exc.value) == message


# (entry point, arguments, raises): each one succeeding and failing
INTAKE_CALLS = [
    (parse_bnet, (BASE + "d, a & !b\n",), None),
    (parse_bnet, (BASE + "d, a & (b\n",), ParseError),
    (set_function, (parse_bnet(BASE), "d", "a | !c"), None),
    (set_function, (parse_bnet(BASE), "d", "a | zz"), NetworkError),
]


def _passes():
    return [stats["collections"] for stats in gc.get_stats()]


def _intake_call(entry, args, raises):
    if raises is None:
        entry(*args)
    else:
        with pytest.raises(raises):
            entry(*args)


@pytest.mark.parametrize("entry, args, raises", INTAKE_CALLS)
def test_intake_runs_one_young_pass_and_switches_collection_back_on(entry, args, raises):
    assert gc.isenabled()
    gc.collect()  # no automatic pass is due before the call
    before = _passes()
    _intake_call(entry, args, raises)
    after = _passes()
    assert gc.isenabled()
    assert [a - b for a, b in zip(after, before)] == [1, 0, 0]


@pytest.mark.parametrize("entry, args, raises", INTAKE_CALLS)
def test_intake_leaves_switched_off_collection_alone(entry, args, raises):
    gc.disable()
    try:
        before = _passes()
        _intake_call(entry, args, raises)
        assert not gc.isenabled()
        assert _passes() == before
    finally:
        gc.enable()


# consensus adds primes to the DNFs of a and b
CONSENSUS_MODEL = "a, (a & b) | (!a & c)\nb, (a & !b) | (b & c) | !c\nc, (a & !b) | (!a & b)\n"


EDITED_MODEL = "a, b & !c\nb, a | c\nc, !a\n"


def _edited(text, *edits):
    net = parse_bnet(text)
    for name, expr_text in edits:
        net = set_function(net, name, expr_text)
    return net


@pytest.mark.parametrize(
    "build",
    [
        functools.partial(parse_bnet, generate_bnet(GenSpec(n=200, family=family, seed=1)))
        for family in FAMILIES
    ]
    + [
        functools.partial(parse_bnet, CONSENSUS_MODEL),
        # an edit reads literals other functions hold, and one no clause held
        functools.partial(_edited, EDITED_MODEL, ("c", "a & b")),
        functools.partial(_edited, EDITED_MODEL, ("a", "!b | c"), ("d", "!d & (a | !c)")),
        # one-name lines: a literal of a's clause, and one of a new component
        functools.partial(_edited, EDITED_MODEL, ("b", "!c"), ("d", "!d")),
        functools.partial(_edited, CONSENSUS_MODEL, ("c", "(a & !b) | (b & c) | !c")),
        functools.partial(
            _edited,
            generate_bnet(GenSpec(n=200, family=FAMILIES[1], seed=1)),
            ("x010", "!(x011 & !x012) | x013"),
        ),
    ],
    ids=list(FAMILIES)
    + [
        "consensus",
        "edited",
        "edited-twice",
        "edited-leaves",
        "edited-consensus",
        "edited-generated",
    ],
)
def test_parsed_model_shares_one_object_per_literal(build):
    net = build()
    first = {}
    for fn in net.functions:
        for dnf in (fn.dnf, fn.primes):
            for clause in dnf:
                for literal in clause:
                    assert first.setdefault(literal, literal) is literal
    assert len(first) > 2
