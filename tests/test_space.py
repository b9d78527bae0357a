"""Characteristic calculus: derivative laws, census, classification.

Derived expectations come from two independent oracles: structural
pruning of realized trees (oracle module) and stage-wise evaluation via
derivative_steps (helpers.stagewise_union).
"""

from __future__ import annotations

import copy
import pickle
import random
import weakref
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from cbkit.ordinal import OMEGA, ONE, ZERO, Ordinal, add, parse_ordinal
from cbkit.space import (
    EMPTY_CLASS,
    AmbientDescriptor,
    Cardinality,
    CbChar,
    CensusBudgetError,
    census,
    char_from_obj,
    char_to_obj,
    class_count,
    derivative,
    derivative_steps,
    homeomorphic,
    union_char,
)
from cbkit.oracle import audit_rank, char_by_pruning, prune, prune_forest
from cbkit.realize import realize_multi
import space_reference as reference
from helpers import (
    C,
    assert_survives_checks,
    random_char,
    shifted_forest,
    st_char,
    st_nested_ordinal,
    stagewise_union,
)

P = parse_ordinal


# ---------------------------------------------------------------- fixed values


def test_pair_arguments_must_be_chars():
    # a stand-in with the same fields would skip the checks its results rely on
    from types import SimpleNamespace

    fake = SimpleNamespace(rank=3, count=1)
    for call in (
        lambda: derivative_steps(fake, 1),
        lambda: derivative(fake),
        lambda: union_char(fake, EMPTY_CLASS),
        lambda: union_char(EMPTY_CLASS, fake),
        lambda: homeomorphic(fake, EMPTY_CLASS),
    ):
        with pytest.raises(TypeError, match="^expected CbChar values$"):
            call()


# protocol 2 and 4 pickles of a pair, as written before CbChar had slots:
# stored pickles must still load, and new ones must not differ
PICKLED_CHAR = {
    2: (
        b"\x80\x02ccbkit.space\nCbChar\nq\x00)\x81q\x01}q\x02(X\x04\x00\x00\x00rankq\x03ccbkit.ordinal\nOrdinal\nq\x04)\x81q\x05"
        b"}q\x06X\x05\x00\x00\x00termsq\x07h\x04)\x81q\x08}q\th\x07h\x04)\x81q\n}q\x0bh\x07)sbK\x02\x86q\x0c\x85q\rsbK\x01"
        b"\x86q\x0eh\nK\x01\x86q\x0f\x86q\x10sbX\x05\x00\x00\x00countq\x11K\x03ub."
    ),
    4: (
        b"\x80\x04\x95\x87\x00\x00\x00\x00\x00\x00\x00\x8c\x0bcbkit.space\x94\x8c\x06CbChar\x94\x93\x94)\x81\x94}\x94(\x8c"
        b"\x04rank\x94\x8c\rcbkit.ordinal\x94\x8c\x07Ordinal\x94\x93\x94)\x81\x94}\x94\x8c\x05terms\x94h\x08)\x81\x94}\x94h"
        b"\x0bh\x08)\x81\x94}\x94h\x0b)sbK\x02\x86\x94\x85\x94sbK\x01\x86\x94h\x0eK\x01\x86\x94\x86\x94sb\x8c\x05count\x94K"
        b"\x03ub."
    ),
}


@pytest.mark.parametrize("protocol", sorted(PICKLED_CHAR))
def test_char_pickle_bytes_are_stable(protocol):
    c = C(P("w^(2)+1"), 3)
    loaded = pickle.loads(PICKLED_CHAR[protocol])
    assert loaded == c and str(loaded) == "(w^(2)+1, 3)"
    assert_char_survives_checks(loaded)
    assert pickle.dumps(c, protocol) == PICKLED_CHAR[protocol]


def test_char_has_slots_and_dataclass_surface():
    c = C(P("w*2+1"), 4)
    # the fields are slots: no pair has an instance dict, but pairs can
    # still be weakly referenced
    assert not hasattr(c, "__dict__") and not hasattr(EMPTY_CLASS, "__dict__")
    assert weakref.ref(c)() is c
    assert not any(hasattr(x, "__dict__") for x in (*census(3, 2), derivative(c), union_char(c, c)))
    assert [(f.name, f.type) for f in fields(CbChar)] == [("rank", "Ordinal"), ("count", "int")]
    assert repr(c) == 'CbChar(rank=Ordinal("w*2+1"), count=4)'
    for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c)), replace(c)):
        assert twin == c and hash(twin) == hash(c) and twin is not c
    assert replace(c, count=1) == C(P("w*2+1"), 1)
    with pytest.raises(ValueError):
        replace(c, count=0)
    with pytest.raises(AttributeError):
        c.count = 5


def test_char_validation():
    assert EMPTY_CLASS == C(0, 0)
    with pytest.raises(ValueError):
        CbChar(OMEGA, 0)  # empty space must have rank 0
    with pytest.raises(ValueError):
        CbChar(ZERO, -1)
    with pytest.raises(TypeError):
        CbChar("w", 1)


def test_derivative_examples():
    assert derivative(C(0, 5)) == C(0, 0)

    # (1, 2): oracle = one structural pruning pass over the realized forest
    forest = realize_multi(ONE, 2)
    assert char_by_pruning(prune_forest(forest)) == C(0, 2)
    assert derivative(C(1, 2)) == C(0, 2)

    # (w, 1): oracle = prune once, audit the surviving annotations
    tree = realize_multi(OMEGA, 1)[0]
    assert audit_rank(prune(tree), exact=False) == OMEGA
    assert derivative(C(OMEGA, 1)) == C(OMEGA, 1)


def test_derivative_steps_examples():
    # (w,1) at stage w: every finite stage keeps class (w,1), the limit
    # stage leaves the single center
    s = C(OMEGA, 1)
    tree = realize_multi(OMEGA, 1)[0]
    t = tree
    for _ in range(3):
        t = prune(t)
        assert audit_rank(t, exact=False) == OMEGA
    assert derivative_steps(s, OMEGA) == C(0, 1)

    assert derivative_steps(C(3, 2), 5) == C(0, 0)
    for sample in (C(0, 0), C(2, 3), C(OMEGA, 4), s):
        assert derivative_steps(sample, 0) == sample


def test_derivative_steps_intermediate():
    assert derivative_steps(C(P("w*2"), 3), OMEGA) == C(OMEGA, 3)
    assert derivative_steps(C(P("w^(2)"), 1), OMEGA) == C(P("w^(2)"), 1)
    assert derivative_steps(C(5, 2), 3) == C(2, 2)
    assert derivative_steps(C(0, 0), OMEGA) == C(0, 0)


def test_union_examples():
    # stage-wise oracle evaluates both sides through derivative_steps
    assert stagewise_union(C(OMEGA, 1), C(2, 3)) == C(OMEGA, 1)
    assert union_char(C(OMEGA, 1), C(2, 3)) == C(OMEGA, 1)

    assert stagewise_union(C(1, 2), C(1, 3)) == C(1, 5)
    assert union_char(C(1, 2), C(1, 3)) == C(1, 5)

    for s in (EMPTY_CLASS, C(0, 4), C(OMEGA, 2)):
        assert union_char(EMPTY_CLASS, s) == s
        assert union_char(s, EMPTY_CLASS) == s


def test_union_against_pruning_forests():
    # disjoint forests realized far apart, pruned structurally
    cases = [((1, 2), (1, 3)), ((2, 1), (0, 2)), ((0, 1), (3, 1)), ((2, 2), (2, 2))]
    for (n1, p1), (n2, p2) in cases:
        forest = shifted_forest(Ordinal.from_int(n1), p1, 0) + shifted_forest(
            Ordinal.from_int(n2), p2, 10
        )
        assert char_by_pruning(forest) == union_char(C(n1, p1), C(n2, p2))


def test_homeomorphic_examples():
    assert homeomorphic(C(OMEGA, 1), C(OMEGA, 1))
    assert not homeomorphic(C(OMEGA, 1), C(OMEGA, 2))
    assert not homeomorphic(C(0, 3), C(1, 3))


def test_census_examples():
    assert [(int(c.rank), c.count) for c in census(3, 2)] == [
        (0, 0),
        (0, 1),
        (0, 2),
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
    ]
    assert [(int(c.rank), c.count) for c in census(1, 3)] == [(0, 0), (0, 1), (0, 2), (0, 3)]
    assert census(0, 5) == []


def test_census_budgets():
    with pytest.raises(CensusBudgetError):
        census(OMEGA, 2)  # infinite bound needs a truncation
    got = census(OMEGA, 2, max_ranks=3)
    assert len(got) == 1 + 3 * 2
    with pytest.raises(CensusBudgetError):
        census(1000, 1000, size_cap=100)
    assert census(P("w^(w)"), 1, max_ranks=4)[-1] == C(3, 1)


def test_census_size_formula():
    for b in (1, 2, 5):
        for p in (1, 3):
            assert len(census(b, p)) == 1 + b * p


def _census_or_error(fn, bound, count, max_ranks, size_cap):
    try:
        return fn(bound, count, max_ranks=max_ranks, size_cap=size_cap)
    except CensusBudgetError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=9) | st_nested_ordinal,
    st.integers(min_value=0, max_value=4),
    st.none() | st.integers(min_value=0, max_value=7),
    st.sampled_from([100_000, 12, 0]),
)
def test_census_matches_reference(bound, count, max_ranks, size_cap):
    got = _census_or_error(census, bound, count, max_ranks, size_cap)
    want = _census_or_error(reference.census, bound, count, max_ranks, size_cap)
    if isinstance(want, tuple):
        assert got == want
        return
    # same size, same order, equal pairs
    assert len(got) == len(want) and got == want
    assert all(type(c) is CbChar for c in got)
    # one rank object per rank, shared by that rank's pairs
    ranks: dict[Ordinal, set[int]] = {}
    for c in got[1:]:
        ranks.setdefault(c.rank, set()).add(id(c.rank))
    assert all(len(ids) == 1 for ids in ranks.values())
    assert sorted(int(r) for r in ranks) == list(range(len(ranks)))


def test_class_count_examples():
    assert class_count(AmbientDescriptor.finite(4)) == Cardinality.finite(5)
    assert class_count(AmbientDescriptor.countably_infinite()) == Cardinality.aleph0()
    assert class_count(AmbientDescriptor.uncountable()) == Cardinality.aleph1()


def test_cardinality_serialization():
    assert Cardinality.finite(5).to_obj() == {"kind": "finite", "n": 5}
    assert Cardinality.aleph0().to_obj() == {"kind": "aleph0"}
    for c in (Cardinality.finite(0), Cardinality.aleph0(), Cardinality.aleph1()):
        assert Cardinality.from_obj(c.to_obj()) == c
    with pytest.raises(ValueError):
        Cardinality.from_obj({"kind": "aleph2"})


def test_char_serialization():
    s = C(P("w^(2)+w"), 3)
    assert char_to_obj(s) == {"rank": "w^(2)+w", "count": 3}
    assert char_from_obj(char_to_obj(s)) == s
    with pytest.raises(ValueError):
        char_from_obj({"rank": "w"})
    with pytest.raises(ValueError):
        char_from_obj({"rank": 3, "count": 1})
    with pytest.raises(Exception):
        char_from_obj({"rank": "w+w", "count": 1}, strict=True)


def test_ambient_validation():
    with pytest.raises(ValueError):
        AmbientDescriptor.finite(-1)
    with pytest.raises(ValueError):
        Cardinality("finite", None)


# ------------------------------------------------------------------------ laws


@given(st_char, st.integers(min_value=0, max_value=10))
def test_derivative_is_one_step(s, _):
    assert derivative(s) == derivative_steps(s, ONE)


@given(st_char)
def test_rank_bound_law(s):
    assert derivative_steps(s, add(s.rank, ONE)) == EMPTY_CLASS
    stopped = derivative_steps(s, s.rank)
    assert stopped.count == s.count
    assert stopped.rank == ZERO


def test_chain_law_randomized():
    rng = random.Random(99)
    from helpers import random_cnf

    for _ in range(300):
        s = random_char(rng)
        b1, b2 = random_cnf(rng), random_cnf(rng)
        assert derivative_steps(s, add(b1, b2)) == derivative_steps(
            derivative_steps(s, b1), b2
        )


@given(st_char, st_char)
def test_union_commutative(s1, s2):
    assert union_char(s1, s2) == union_char(s2, s1)


@given(st_char, st_char, st_char)
def test_union_associative(s1, s2, s3):
    assert union_char(union_char(s1, s2), s3) == union_char(s1, union_char(s2, s3))


@given(st_char, st_char)
def test_union_matches_stagewise_oracle(s1, s2):
    assert union_char(s1, s2) == stagewise_union(s1, s2)


@settings(max_examples=60)
@given(st_char, st_char)
def test_union_derivative_exchange(s1, s2):
    rng = random.Random(hash((str(s1.rank), s1.count, str(s2.rank), s2.count)) & 0xFFFF)
    from helpers import random_cnf

    beta = random_cnf(rng)
    assert derivative_steps(union_char(s1, s2), beta) == union_char(
        derivative_steps(s1, beta), derivative_steps(s2, beta)
    )


@given(st_char, st_char, st_char)
def test_homeomorphic_is_equivalence(s1, s2, s3):
    assert homeomorphic(s1, s1)
    assert homeomorphic(s1, s2) == homeomorphic(s2, s1)
    if homeomorphic(s1, s2) and homeomorphic(s2, s3):
        assert homeomorphic(s1, s3)
    assert homeomorphic(s1, s2) == (s1 == s2)


# ------------------------------------------------ values built without checks

st_nested_char = st.tuples(st_nested_ordinal, st.integers(min_value=1, max_value=5)).map(
    lambda t: CbChar(*t)
) | st.just(EMPTY_CLASS)


def assert_char_survives_checks(c: CbChar) -> None:
    copy = CbChar(c.rank, c.count)
    assert copy == c and hash(copy) == hash(c) and pickle.dumps(copy) == pickle.dumps(c)
    assert_survives_checks(c.rank)


@settings(max_examples=200, deadline=None)
@given(st_nested_char, st_nested_char, st_nested_ordinal, st.integers(min_value=0, max_value=4))
def test_derived_chars_pass_the_checks(s1, s2, beta, n):
    # derivative_steps, union_char and census build their pairs without
    # the constructor's checks
    results = [
        derivative_steps(s1, beta),
        derivative_steps(s1, s1.rank),
        derivative_steps(s2, add(beta, 1)),
        union_char(s1, s2),
        union_char(s1, s1),
        *census(s1.rank, n, max_ranks=3),
    ]
    for c in results:
        assert_char_survives_checks(c)
