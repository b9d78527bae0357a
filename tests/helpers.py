"""Shared generators and small oracles for the test suite."""

from __future__ import annotations

import pickle
import random
from dataclasses import replace
from fractions import Fraction
from functools import cmp_to_key

from hypothesis import strategies as st

from cbkit.ordinal import ONE, ZERO, Ordinal
from cbkit.realize import DEFAULT_CONFIG, ClusterTree, RealizationConfig, realize_cluster
from cbkit.space import CbChar, derivative_steps
import ordinal_reference


def C(rank: Ordinal | int, count: int) -> CbChar:
    """The pair (rank, count); an int rank is that finite ordinal."""
    if isinstance(rank, int):
        rank = Ordinal.from_int(rank)
    return CbChar(rank, count)


def cnf_from_pairs(pairs: dict[int, int]) -> Ordinal:
    """Ordinal below w^w from {finite exponent: coefficient}."""
    terms = tuple(
        (Ordinal.from_int(e), c) for e, c in sorted(pairs.items(), reverse=True) if c > 0
    )
    return Ordinal(terms)


# ordinals below w^w, built structurally rather than via arithmetic
st_ordinal = st.dictionaries(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=5),
    max_size=3,
).map(cnf_from_pairs)

st_limit_ordinal = st_ordinal.filter(lambda a: a.is_limit)


def _normal_form(pairs: list[tuple[Ordinal, int]]) -> Ordinal:
    """The ordinal of raw terms: exponents sorted down, one term each.

    Sorting uses the reference order, so the order under test builds none
    of the values it is then tested on.
    """
    key = cmp_to_key(ordinal_reference.cmp)
    terms: list[tuple[Ordinal, int]] = []
    for e, c in sorted(pairs, key=lambda t: key(t[0]), reverse=True):
        if not terms or ordinal_reference.cmp(terms[-1][0], e) != 0:
            terms.append((e, c))
    return Ordinal(tuple(terms))


def _raw_terms(exponents: st.SearchStrategy[Ordinal]) -> st.SearchStrategy[list[tuple[Ordinal, int]]]:
    return st.lists(st.tuples(exponents, st.integers(min_value=1, max_value=3)), max_size=3)


# ordinals whose exponents are themselves infinite, nested up to three
# levels: w^(w^(w^(2))) is the deepest kind; small exponents and
# coefficients make equal exponents and shared prefixes common
_below_w3 = _raw_terms(st.integers(min_value=0, max_value=2).map(Ordinal.from_int)).map(_normal_form)
_nested_2 = _raw_terms(_below_w3).map(_normal_form)
st_nested_ordinal = _raw_terms(_nested_2).map(_normal_form)
# term lists over nested exponents, in normal form or not
st_nested_terms = _raw_terms(_nested_2) | st_nested_ordinal.map(lambda a: list(a.terms))

st_char = st.tuples(st_ordinal, st.integers(min_value=1, max_value=5)).map(
    lambda t: CbChar(*t)
) | st.just(CbChar(ZERO, 0))


def assert_survives_checks(a: Ordinal) -> None:
    """a, and every exponent inside it, rebuilds through the checking
    constructor unchanged: equal value, hash and pickle."""
    for exponent, _ in a.terms:
        assert_survives_checks(exponent)
    copy = Ordinal(a.terms)
    assert copy == a and hash(copy) == hash(a) and pickle.dumps(copy) == pickle.dumps(a)


def random_cnf(rng: random.Random, max_exp: int = 4, max_terms: int = 3, max_coeff: int = 5) -> Ordinal:
    exps = rng.sample(range(max_exp + 1), k=rng.randint(0, max_terms))
    return cnf_from_pairs({e: rng.randint(1, max_coeff) for e in exps})


def random_char(rng: random.Random) -> CbChar:
    if rng.random() < 0.1:
        return CbChar(ZERO, 0)
    return CbChar(random_cnf(rng), rng.randint(1, 5))


def stagewise_union(s1: CbChar, s2: CbChar) -> CbChar:
    """Union characteristic computed through derivative stages only."""
    top = max(s1.rank, s2.rank)
    survivors = derivative_steps(s1, top).count + derivative_steps(s2, top).count
    if survivors == 0:
        return CbChar(ZERO, 0)
    return CbChar(top, survivors)


def shifted_forest(alpha: Ordinal, p: int, offset: int, cfg=DEFAULT_CONFIG) -> list[ClusterTree]:
    """p rank-alpha clusters at integer centers offset..offset+p-1."""
    return [realize_cluster(Fraction(offset + k), Fraction(1, 2), alpha, cfg) for k in range(p)]


def chain_obj(levels: int) -> dict:
    """Tree object of a chain whose deepest node is `levels` below the root."""
    node: dict = {"center": "0/1", "radius": "1/2", "rank": "0", "children": [], "tail": None}
    for _ in range(levels):
        node = {
            "center": "0/1",
            "radius": "1/2",
            "rank": "1",
            "children": [node],
            "tail": {"next_index": 1, "generator": "successor"},
        }
    return node


st_config = st.builds(
    RealizationConfig,
    children_per_node=st.integers(min_value=2, max_value=6),
    radius_schedule=st.sampled_from(("binary", "thirds")),
    side_rule=st.sampled_from(("right", "left")),
    max_depth=st.integers(min_value=1, max_value=4),
)


def preorder_paths(tree: ClusterTree, path: tuple[int, ...] = ()) -> list[tuple[tuple[int, ...], ClusterTree]]:
    out = [(path, tree)]
    for i, child in enumerate(tree.children):
        out.extend(preorder_paths(child, path + (i,)))
    return out


def replace_at(tree: ClusterTree, path: tuple[int, ...], **changes) -> ClusterTree:
    if not path:
        return replace(tree, **changes)
    kids = list(tree.children)
    kids[path[0]] = replace_at(kids[path[0]], path[1:], **changes)
    return replace(tree, children=tuple(kids))


def outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except Exception as exc:  # the two readings must fail alike
        return type(exc).__name__, str(exc)


class FixedDraws:
    """Stands in for st.data() in an @example: each draw returns the value given for its label."""

    def __init__(self, **draws: object) -> None:
        self.draws = draws

    def draw(self, strategy: st.SearchStrategy, label: str) -> object:
        return self.draws[label]


# A rank-1 tree whose one, last child has a ball holding the root's
# center: validate_tree admits it, and no sphere separates the child from
# the tail children the rule promises, so the restriction check fails it
LAST_HOLDS_CENTER = {
    "center": "0/1", "radius": "1/1", "rank": "1",
    "children": [{"center": "1/4", "radius": "1/2", "rank": "0", "children": [], "tail": None}],
    "tail": {"next_index": 1, "generator": "successor"},
}
