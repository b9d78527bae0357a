"""The argument rules every layer shares, and fuzzing of the input doors."""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cbkit import oracle, realize, space
from cbkit.cli import main
from cbkit.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalParseError,
    add,
    cmp,
    format_ordinal,
    fundamental_seq,
    left_sub,
    mul,
    omega_pow,
    parse_ordinal,
)
from cbkit.realize import RealizationConfig, TailSpec, realize_cluster
from cbkit.space import AmbientDescriptor, Cardinality, CbChar
from helpers import st_ordinal

# ------------------------------------------------------------ natural numbers

_LEAF_TAIL = realize_cluster(0, 1, ONE, RealizationConfig(max_depth=0))  # tail from index 0
_RANK_ONE = realize_cluster(0, 1, ONE)

# (parameter, least value, call with the value, error)
NATURAL_PARAMS = [
    ("Ordinal coefficient", 1, lambda v: Ordinal(((ZERO, v),)), ValueError),
    ("Ordinal.from_int n", 0, Ordinal.from_int, ValueError),
    ("fundamental_seq n", 0, lambda v: fundamental_seq(OMEGA, v), ValueError),
    ("CbChar count", 0, lambda v: CbChar(ZERO, v), ValueError),
    ("census count_bound", 0, lambda v: space.census(2, v), ValueError),
    ("census max_ranks", 0, lambda v: space.census(2, 1, max_ranks=v), ValueError),
    ("census size_cap", 0, lambda v: space.census(1, 0, size_cap=v), ValueError),
    ("Cardinality n", 0, Cardinality.finite, ValueError),
    ("AmbientDescriptor size", 0, AmbientDescriptor.finite, ValueError),
    ("children_per_node", 2, lambda v: RealizationConfig(children_per_node=v), ValueError),
    ("max_depth", 0, lambda v: RealizationConfig(max_depth=v), ValueError),
    ("TailSpec next_index", 0, lambda v: TailSpec(v, "successor"), ValueError),
    ("realize_multi p", 1, lambda v: realize.realize_multi(ONE, v), ValueError),
    ("materialize_tail_child index", 0, lambda v: realize.materialize_tail_child(_LEAF_TAIL, v), ValueError),
    ("materialize_tail_child depth", 0, lambda v: realize.materialize_tail_child(_LEAF_TAIL, 0, depth=v), ValueError),
    ("extend_children count", 0, lambda v: realize.extend_children(_LEAF_TAIL, v), ValueError),
    ("materialize depth_budget", 1, lambda v: realize.materialize(_RANK_ONE, v, 2), ValueError),
    ("materialize width_budget", 1, lambda v: realize.materialize(_RANK_ONE, 2, v), ValueError),
    ("materialize_forest depth_budget", 1, lambda v: realize.materialize_forest([_RANK_ONE], v, 2), ValueError),
    ("prune_steps k", 0, lambda v: oracle.prune_steps(_RANK_ONE, v), ValueError),
    ("prune_trace max_stages", 0, lambda v: oracle.prune_trace(_RANK_ONE, max_stages=v), ValueError),
    ("char_by_pruning stage_cap", 0, lambda v: oracle.char_by_pruning(_RANK_ONE, stage_cap=v), ValueError),
    ("restriction_check n", 0, lambda v: oracle.restriction_check(_RANK_ONE, v, 0), oracle.AnnulusIndexError),
    ("restriction_check beta", 0, lambda v: oracle.restriction_check(_RANK_ONE, 0, v), ValueError),
]


@pytest.mark.parametrize("value", [True, 1.5, -1], ids=["bool", "float", "negative"])
@pytest.mark.parametrize("param", NATURAL_PARAMS, ids=[p[0] for p in NATURAL_PARAMS])
def test_natural_parameters_refuse_non_naturals(param, value):
    _, least, call, error = param
    with pytest.raises(error):
        call(value)
    call(least + 1)  # the rule refuses only what it should


def test_natural_rule_message():
    with pytest.raises(ValueError, match=r"^max_ranks must be an integer >= 0$"):
        space.census(OMEGA, 1, max_ranks=1.5)
    with pytest.raises(ValueError, match=r"^p must be an integer >= 1$"):
        realize.realize_multi(ONE, True)


# ----------------------------------------------------------- ordinal operands

OPERAND_USES = [
    ("add", lambda v: add(ONE, v)),
    ("mul", lambda v: mul(v, OMEGA)),
    ("cmp", lambda v: cmp(ONE, v)),
    ("left_sub", lambda v: left_sub(v, OMEGA)),
    ("omega_pow", omega_pow),
    ("format_ordinal", format_ordinal),
    ("derivative_steps", lambda v: space.derivative_steps(CbChar(OMEGA, 1), v)),
    ("census", lambda v: space.census(v, 1)),
    ("+", lambda v: ONE + v),
    ("radd", lambda v: v + ONE),
    ("*", lambda v: ONE * v),
    ("rmul", lambda v: v * ONE),
    ("<", lambda v: ONE < v),
    ("<=", lambda v: ONE <= v),
    (">", lambda v: ONE > v),
    (">=", lambda v: ONE >= v),
]


@pytest.mark.parametrize("value", ["w", True, 1.5, -1, None], ids=["str", "bool", "float", "negative", "none"])
@pytest.mark.parametrize("use", OPERAND_USES, ids=[u[0] for u in OPERAND_USES])
def test_ordinal_operands_refuse_non_ordinals(use, value):
    with pytest.raises(TypeError):
        use[1](value)
    use[1](2)  # a natural number is read as an ordinal


# ------------------------------------------------------------------- hashing


@pytest.mark.parametrize("n", range(6))
def test_finite_ordinal_hashes_as_its_int(n):
    assert hash(Ordinal.from_int(n)) == hash(n)
    assert {n: "x"}.get(Ordinal.from_int(n)) == "x"
    assert {Ordinal.from_int(n): "x"}.get(n) == "x"


_POOL = st.one_of(st_ordinal, st.integers(min_value=0, max_value=6))


def _twin(x):
    """The same value on the other side: a finite ordinal for an int, and back."""
    if isinstance(x, int):
        return Ordinal.from_int(x)
    return int(x) if x.is_finite else x


@given(_POOL, _POOL)
def test_equal_values_hash_equal(a, b):
    for x, y in ((a, b), (a, _twin(a)), (b, _twin(b))):
        if x == y:
            assert hash(x) == hash(y)


# ------------------------------------------------------------------- fuzzing

_ORD_CHARS = st.sampled_from(list("w^()*+0123456789 ")) | st.characters()


@settings(max_examples=150, deadline=None)
@given(st.text(_ORD_CHARS, max_size=30), st.booleans())
@example("w*\u00b2", False)  # a digit to str.isdigit, not to int
@example("9" * 5000, False)  # longer than Python converts to an int
def test_parse_ordinal_fuzz(text, strict):
    try:
        value = parse_ordinal(text, strict=strict)
    except OrdinalParseError:
        return
    assert parse_ordinal(format_ordinal(value), strict=True) == value


_FRACTION_TEXT = st.sampled_from(["0/1", "1/2", "-3/8", "1/0", "5", "1e9", "x", ""]) | st.text(max_size=6)
_RANK_TEXT = st.sampled_from(["0", "1", "2", "w", "w+1", "w^(", "0+0"]) | st.text(max_size=6)
_TAIL = st.none() | st.fixed_dictionaries(
    {
        "next_index": st.integers(min_value=-2, max_value=5) | st.booleans() | st.text(max_size=2),
        "generator": st.sampled_from(["successor", "limit", "other"]),
    }
)
_JSON_LEAF = st.none() | st.booleans() | st.integers() | st.text(max_size=5)


def _tree_objs(children):
    node = st.fixed_dictionaries(
        {
            "center": _FRACTION_TEXT | _JSON_LEAF,
            "radius": _FRACTION_TEXT | _JSON_LEAF,
            "rank": _RANK_TEXT | _JSON_LEAF,
            "children": st.lists(children, max_size=3) | _JSON_LEAF,
            "tail": _TAIL | _JSON_LEAF,
        }
    )
    # some nodes miss a key
    return node | node.flatmap(lambda d: st.sampled_from(sorted(d)).map(lambda k: {x: d[x] for x in d if x != k}))


_TREE_OBJ = st.recursive(_JSON_LEAF, _tree_objs, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(_TREE_OBJ, st.booleans())
def test_tree_from_obj_fuzz(obj, strict):
    try:
        tree = realize.tree_from_obj(obj, strict=strict)
    except ValueError:
        return
    assert isinstance(tree, realize.ClusterTree)


def test_fraction_text_refuses_exponents():
    # Fraction builds the power of ten first, so "1e999999999" would not end
    for text in ("1e5000", "2E-3"):
        with pytest.raises(ValueError, match="not a rational number"):
            realize.fraction_from_text(text)


_CONFIG_LINE = st.one_of(
    st.tuples(
        st.sampled_from(["children_per_node", "radius_schedule", "side_rule", "max_depth", "ambient", ""]),
        st.sampled_from([" = ", "=", " "]),
        st.sampled_from(["3", "0", "-1", "1.5", "thirds", "binary", "left", "right", "", "x"]) | st.text(max_size=4),
    ).map("".join),
    st.text(max_size=10),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_CONFIG_LINE, max_size=5))
def test_parse_config_file_fuzz(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "r.cfg")
        path.write_text("\n".join(lines), encoding="utf-8")
        try:
            cfg = realize.parse_config_file(path)
        except ValueError:
            return
    assert isinstance(cfg, RealizationConfig)


_TOKENS = st.sampled_from(
    [
        "0", "1", "3", "-1", "1.5", "x", "", "w", "w+1", "w*2", "w^(w)", "w^(", "9" * 5000,
        "add", "mul", "cmp", "sub", "fs", "derive", "steps", "union", "homeo",
        "finite", "countable", "uncountable",
        "--rank", "--count", "--beta", "-p", "-m", "--max-ranks", "--size-cap", "--stage-cap",
        "--schedule", "thirds", "--side", "left", "--mat-depth", "--width", "--help",
    ]
)
_SMALL = st.sampled_from(["-1", "0", "1", "2", "3", "x"])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cli_main_fuzz(data):
    with tempfile.TemporaryDirectory() as tmp:
        tree = str(Path(tmp, "t.json"))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["realize", "2", "-m", "2", "--depth", "2", "--out", tree]) == 0
        command = data.draw(
            st.sampled_from(
                [
                    ["ord"],
                    ["space"],
                    ["census"],
                    ["classcount"],
                    ["verify", tree],
                    ["verify", str(Path(tmp, "missing.json"))],
                    # small enough to build in a moment, whatever the rank
                    ["realize", "-m", data.draw(_SMALL), "--depth", data.draw(_SMALL)],
                ]
            )
        )
        argv = command + data.draw(st.lists(_TOKENS | st.text(max_size=4), max_size=6))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    assert code in (0, 1, 2, 3)
