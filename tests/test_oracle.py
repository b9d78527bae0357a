"""Pruning, geometry and audit oracles against realized trees."""

from __future__ import annotations

import copy
import gc
import pickle
import sys
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cbkit import oracle
from cbkit.ordinal import OMEGA, ONE, ZERO, Ordinal, parse_ordinal
from cbkit.realize import (
    DEFAULT_CONFIG,
    ClusterTree,
    RealizationConfig,
    SCHEDULE_BASES,
    TailSpec,
    TreeInvariantError,
    child_geometry,
    realize_cluster,
    realize_multi,
    tree_to_obj,
    validate_tree,
)
from cbkit.space import CbChar, EMPTY_CLASS, derivative, derivative_steps
from cbkit.oracle import (
    AnnulusIndexError,
    AuditError,
    InfiniteRankError,
    MAX_SCALE_BITS,
    ScaleBudgetError,
    audit_char,
    audit_rank,
    char_by_pruning,
    count_nodes,
    geometry_check,
    prune,
    prune_forest,
    prune_steps,
    prune_trace,
    restriction_check,
)
from helpers import C, replace_at, st_ordinal

P = parse_ordinal
F = Fraction


# -------------------------------------------------------------------- pruning


def test_prune_rank_one_leaves_center():
    t = realize_cluster(0, 1, ONE)
    p = prune(t)
    assert p is not None and p.is_leaf
    assert p.center == 0 and p.rank == ZERO


def test_prune_leaf_vanishes():
    assert prune(realize_cluster(0, 1, ZERO)) is None
    assert prune_forest([]) == ()


def test_prune_steps_examples():
    t = realize_cluster(0, 1, Ordinal.from_int(2))
    two = prune_steps(t, 2)
    assert two is not None and two.is_leaf and two.center == 0
    assert prune_steps(t, 3) is None
    assert prune_steps(t, 0) is t
    with pytest.raises(ValueError):
        prune_steps(t, -1)


def test_prune_steps_compose():
    t = realize_cluster(0, 1, Ordinal.from_int(3))
    assert prune_steps(t, 3) == prune_steps(prune_steps(t, 2), 1)
    assert prune_steps(t, 2) == prune(prune(t))


def test_oracle_keeps_no_module_level_cache():
    assert not hasattr(oracle, "_PRUNE_CACHE")
    assert not hasattr(oracle, "clear_prune_cache")
    mutable = {
        name
        for name, value in vars(oracle).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }
    assert mutable == set()


def test_prune_memo_dies_with_its_tree():
    t = realize_multi(parse_ordinal("w+2"), 1, RealizationConfig(max_depth=3))[0]
    stages = [prune_steps(t, k) for k in range(1, 4)]
    restriction_check(t, 0, 2)
    geometry_check(t)
    finite = realize_multi(Ordinal.from_int(3), 2)
    assert char_by_pruning(finite) == C(3, 2)
    refs = [weakref.ref(x) for x in (t, *stages, *finite)]
    del t, stages, finite
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
    # a failed pruning memoizes message text: no exception, whose traceback
    # would reach back to the tree, keeps the tree alive
    flipped = replace(realize_cluster(0, 1, ONE), tail=TailSpec(4, "limit"))
    for check in (char_by_pruning, prune, lambda x: restriction_check(x, 0, 1)):
        with pytest.raises(TreeInvariantError, match=r"^tail generator disagrees with rank$"):
            check(flipped)
    ref = weakref.ref(flipped)
    del flipped
    assert ref() is None


def test_prune_memo_is_invisible():
    t, fresh = (realize_multi(parse_ordinal("w*2+1"), 1)[0] for _ in range(2))
    before = (hash(t), tree_to_obj(t), repr(t), pickle.dumps(t))
    once = prune(t)
    prune_steps(t, 3)
    for n in range(4):
        for beta in range(4):
            restriction_check(t, n, beta)
    geometry_check(t)
    assert t == fresh and (hash(t), tree_to_obj(t), repr(t), pickle.dumps(t)) == before
    finite, fresh_finite = (realize_multi(Ordinal.from_int(3), 2) for _ in range(2))
    assert char_by_pruning(finite) == C(3, 2)
    for x, y in zip(finite, fresh_finite):
        geometry_check(x)
        restriction_check(x, 0, 1)
        assert x == y
        assert (hash(x), tree_to_obj(x), repr(x), pickle.dumps(x)) == (hash(y), tree_to_obj(y), repr(y), pickle.dumps(y))
    # pruning a checked tree gives what pruning a fresh one does
    fresh_once = prune(fresh)
    assert (once, hash(once), tree_to_obj(once)) == (fresh_once, hash(fresh_once), tree_to_obj(fresh_once))
    assert prune(replace(t)) == once


MEMOS = ("_fate_memo", "_scale_memo", "_table_memo")


def test_memos_are_slots_that_no_copy_carries():
    t = realize_multi(P("w^(2)+w"), 1, RealizationConfig(max_depth=3))[0]
    assert all(getattr(node, name, None) is None for node in t.iter_nodes() for name in MEMOS)
    # an empty memo slot, and an ordinal's unset hash slot, are read
    # without raising: no Python frame sees an exception while they fill
    raised = []

    def tracer(frame, event, arg):
        if event == "exception":
            raised.append(arg[0])
        return tracer

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        restriction_check(t, 0, 1)
        geometry_check(t)
        audit_char([t], exact=True)
        hash(Ordinal(P("w^(3)+w*2").terms))
    finally:
        sys.settrace(before)
    assert raised == []
    assert all(getattr(t, name, None) is not None for name in MEMOS)
    # copies start with empty memos; shallow ones share the children
    deep = (copy.deepcopy(t), pickle.loads(pickle.dumps(t)))
    for twin in (copy.copy(t), replace(t), *deep):
        assert twin == t and twin is not t
        assert all(getattr(twin, name, None) is None for name in MEMOS)
    for twin in deep:
        assert all(getattr(node, name, None) is None for node in twin.iter_nodes() for name in MEMOS)
    assert restriction_check(deep[0], 0, 1) and getattr(deep[0], "_table_memo", None) is not None


def test_prune_updates_successor_annotations():
    t = realize_cluster(0, 1, Ordinal.from_int(3))
    ranks = Counter(int(node.rank) for node in prune(t).iter_nodes())
    # every surviving node dropped by exactly one; the leaves vanished
    assert ranks == Counter({2: 1, 1: 4, 0: 16})


def test_prune_keeps_limit_nodes():
    t = realize_multi(OMEGA, 1)[0]
    p = prune(t)
    assert p.rank == OMEGA
    assert [c.rank for c in p.children] == [Ordinal.from_int(n) for n in range(4)]
    # second pass drops the dead index; the tail index is preserved
    pp = prune(p)
    assert pp.rank == OMEGA
    assert len(pp.children) == 3 and pp.tail == TailSpec(4, "limit")
    assert [c.rank for c in pp.children] == [Ordinal.from_int(n) for n in range(3)]


def test_prune_rejects_tailless_interior():
    bad = ClusterTree(F(0), F(1), ONE, (ClusterTree(F(1, 2), F(1, 8), ZERO),), None)
    with pytest.raises(TreeInvariantError):
        prune(bad)


def test_prune_rejects_tail_generator_off_the_rank():
    t = realize_cluster(0, 1, Ordinal.from_int(4))
    for bad in (
        replace(t, tail=TailSpec(4, "limit")),
        ClusterTree(F(0), F(1), ZERO, (), TailSpec(0, "successor")),
    ):
        with pytest.raises(TreeInvariantError, match="tail generator disagrees with rank"):
            prune(bad)


def test_prune_large_finite_part():
    # one pass per stage, not one call per unit of the finite part
    t = realize_cluster(0, 1, P("w+5000"), RealizationConfig(max_depth=2))
    assert prune_steps(t, 3).rank == P("w+5000")


@given(st_ordinal.filter(lambda a: not a.is_zero))
def test_prune_rank_matches_one_derivative(rank):
    cfg = RealizationConfig(children_per_node=2, max_depth=2)
    pruned = prune(realize_cluster(0, 1, rank, cfg))
    assert audit_rank(pruned, exact=False) == derivative_steps(CbChar(rank, 1), ONE).rank


def test_prune_trace_counts():
    forest = realize_multi(Ordinal.from_int(2), 2)
    reports = prune_trace(forest)
    survivors = [r.survivors for r in reports]
    assert survivors == sorted(survivors, reverse=True)
    assert reports[1].finite_reached  # stage 2 strips the last tails
    assert reports[-1].survivors == 0


def test_char_by_pruning_examples():
    assert char_by_pruning(realize_multi(Ordinal.from_int(2), 1)) == C(2, 1)
    assert char_by_pruning(realize_cluster(0, 1, ZERO)) == C(0, 1)
    assert char_by_pruning(realize_multi(Ordinal.from_int(3), 2)) == C(3, 2)
    assert char_by_pruning([]) == EMPTY_CLASS
    # each root's life is read in one walk, however high the rank
    cfg = RealizationConfig(children_per_node=2, max_depth=2)
    assert char_by_pruning(realize_multi(Ordinal.from_int(40), 2, cfg)) == C(40, 2)


def test_char_by_pruning_guards():
    with pytest.raises(InfiniteRankError):
        char_by_pruning(realize_multi(OMEGA, 1))


def test_single_step_agreement_with_derivative():
    # surviving annotations after one pass match the class-level derivative
    for n, p in ((1, 2), (2, 1), (3, 3)):
        forest = realize_multi(Ordinal.from_int(n), p)
        pruned = prune_forest(forest)
        got = audit_char(pruned, exact=False) if pruned else EMPTY_CLASS
        assert got == derivative(C(n, p))


# ------------------------------------------------------------------- geometry


def test_geometry_ok_on_realized_trees():
    for text in ("1", "2", "w", "w^(2)"):
        report = geometry_check(realize_cluster(0, 1, P(text)))
        assert report.ok and report.counterexample is None
        assert report.claim1_ok and report.claim2_ok and report.claim3_ok
        assert report.annuli > 0


def test_geometry_leaf_vacuous():
    report = geometry_check(realize_cluster(0, 1, ZERO))
    assert report.ok and report.annuli == 0


def test_geometry_claim3_point_on_sphere():
    # plant a grandchild exactly on the first separating sphere
    t = realize_cluster(0, 1, Ordinal.from_int(2))
    bound = (F(1, 2) + F(1, 4)) / 2
    bad = replace_at(t, (0, 0), center=bound)
    report = geometry_check(bad)
    assert not report.ok and not report.claim3_ok
    assert report.counterexample.claim == 3
    assert report.counterexample.point == bound
    assert report.counterexample.bound == bound
    assert report.counterexample.path == "/"


def test_forest_failures_name_their_tree():
    # in a forest of several trees, tree k's root is /k; a lone tree's is /
    two = realize_multi(Ordinal.from_int(2), 2)
    sphere = two[1].center + F(3, 16)  # between tree 1's first two children
    forest = [two[0], replace_at(two[1], (0, 0), center=sphere)]
    report = geometry_check(forest)
    assert (report.counterexample.path, report.counterexample.point) == ("/1", sphere)
    lone = geometry_check(forest[1])
    assert lone == geometry_check([forest[1]])
    assert lone.counterexample == replace(report.counterexample, path="/")

    tampered = [two[0], replace_at(two[1], (0,), rank=Ordinal.from_int(3))]
    with pytest.raises(AuditError, match="^child rank 3 != 1 at /1/0$"):
        audit_char(tampered)
    with pytest.raises(AuditError, match="^child rank 3 != 1 at /0$"):
        audit_char(tampered[1])


def test_geometry_claim1_inner_intruder():
    # child 1 pulled inside the sphere separating it from child 2
    t = realize_cluster(0, 1, ONE)
    bad = replace_at(t, (1,), center=F(1, 20))
    report = geometry_check(bad)
    assert not report.claim1_ok
    assert report.counterexample.claim == 1
    assert report.counterexample.annulus == 1
    assert report.counterexample.point == F(1, 20)


def test_geometry_claim2_outer_escape():
    # child 2 pushed past the sphere separating children 0 and 1
    t = realize_cluster(0, 1, ONE)
    bad = replace_at(t, (2,), center=F(2, 5))  # 2/5 >= 3/8
    report = geometry_check(bad)
    assert not report.claim2_ok
    assert report.counterexample.claim == 2
    assert report.counterexample.annulus == 0
    assert report.counterexample.point == F(2, 5)


def test_geometry_report_serialization():
    report = geometry_check(realize_cluster(0, 1, ONE))
    obj = report.to_obj()
    assert obj["ok"] is True and obj["counterexample"] is None
    t = realize_cluster(0, 1, Ordinal.from_int(2))
    bad = replace_at(t, (0, 0), center=F(3, 8))
    obj = geometry_check(bad).to_obj()
    assert obj["counterexample"]["point"] == "3/8"


def test_geometry_report_key_order():
    # the README's report order, field by field; dict equality ignores it
    t = realize_cluster(0, 1, ONE)
    keys = ["ok", "annuli", "claim1_ok", "claim2_ok", "claim3_ok", "counterexample"]
    assert list(geometry_check(t).to_obj()) == keys
    report = geometry_check(replace_at(t, (2,), center=F(2, 5)))
    assert list(report.to_obj()) == keys
    obj = report.counterexample.to_obj()
    assert list(obj) == ["path", "annulus", "claim", "point", "bound"]
    assert (obj["point"], obj["bound"]) == ("2/5", "3/8")
    assert report.to_obj()["counterexample"] == obj


# ---------------------------------------------------------------- restriction


def test_restriction_examples():
    t2 = realize_cluster(0, 1, Ordinal.from_int(2))
    assert restriction_check(t2, 2, 1)
    t1 = realize_cluster(0, 1, ONE)
    assert restriction_check(t1, 0, 0)
    t3 = realize_cluster(0, 1, Ordinal.from_int(3))
    assert restriction_check(t3, 1, 3)  # both sides prune to nothing


def test_restriction_full_grid_small():
    for text in ("1", "2", "w", "w+1"):
        t = realize_cluster(0, 1, P(text))
        for n in range(len(t.children)):
            for beta in range(4):
                assert restriction_check(t, n, beta)


@settings(max_examples=60, deadline=None)
@given(
    children=st.integers(2, 7),
    schedule=st.sampled_from(tuple(SCHEDULE_BASES)),
    side=st.sampled_from(("right", "left")),
    rank=st.sampled_from(("1", "3", "w", "w+2", "w*2", "w^(2)")),
    offset=st.fractions(-4, 4, max_denominator=7),
)
def test_ball_inner_edges_are_the_schedule_midpoints(children, schedule, side, rank, offset):
    # restriction_check places the sphere past the last child at that
    # child's ball edge nearest the center, where the schedule puts the midpoint
    cfg = RealizationConfig(children, schedule, side, 2)
    tree = realize_cluster(offset, F(1, 2), P(rank), cfg)
    for node in tree.iter_nodes():
        z, kids = node.center, node.children
        dist = [abs(c.center - z) for c in kids]
        for i, c in enumerate(kids[:-1]):
            assert dist[i] - c.radius == (dist[i] + dist[i + 1]) / 2
        if kids:
            nxt = abs(child_geometry(cfg, z, node.radius, len(kids))[0] - z)
            assert dist[-1] - kids[-1].radius == (dist[-1] + nxt) / 2


def test_restriction_builds_no_stage_tree(monkeypatch):
    t = realize_cluster(0, 1, P("w^(2)"))
    built = []
    init = ClusterTree.__init__
    monkeypatch.setattr(ClusterTree, "__init__", lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    for n in range(4):
        for beta in range(4):
            assert restriction_check(t, n, beta)
    assert built == []


def test_restriction_index_errors():
    t = realize_cluster(0, 1, ONE)
    with pytest.raises(AnnulusIndexError):
        restriction_check(t, 4, 0)
    with pytest.raises(AnnulusIndexError):
        restriction_check(t, -1, 0)
    with pytest.raises(AnnulusIndexError):
        restriction_check(realize_cluster(0, 1, ZERO), 0, 0)
    with pytest.raises(ValueError):
        restriction_check(t, 0, -2)


def test_restriction_detects_misplaced_point():
    # a subtree point pushed beyond its annulus breaks the identity
    t = realize_cluster(0, 1, Ordinal.from_int(2))
    bad = replace_at(t, (1, 0), center=F(2, 5))
    assert not restriction_check(bad, 0, 0)


# --------------------------------------------------------------------- audits


def test_audit_exact_on_realized():
    for text in ("0", "3", "w", "w*2", "w^(2)"):
        t = realize_cluster(0, 1, P(text))
        assert audit_rank(t) == P(text)


def test_audit_char_forest():
    forest = realize_multi(P("w^(2)"), 3)
    assert audit_char(forest) == C(P("w^(2)"), 3)
    assert audit_char([]) == EMPTY_CLASS


def test_audit_rejects_tampered_rank():
    t = realize_cluster(0, 1, Ordinal.from_int(2))
    bad = replace_at(t, (1,), rank=Ordinal.from_int(2), tail=TailSpec(4, "successor"))
    with pytest.raises(AuditError):
        audit_rank(bad)


def test_audit_rejects_bad_generator():
    t = realize_multi(OMEGA, 1)[0]
    bad = replace(t, tail=TailSpec(4, "successor"))
    with pytest.raises(AuditError):
        audit_rank(bad)


def test_audit_exact_rejects_pruned_gaps():
    t = prune_steps(realize_multi(OMEGA, 1)[0], 2)
    assert len(t.children) < t.tail.next_index
    with pytest.raises(AuditError):
        audit_rank(t, exact=True)
    assert audit_rank(t, exact=False) == OMEGA
    validate_tree(t, expect_prefix=False)
    with pytest.raises(TreeInvariantError):
        validate_tree(t)


def test_audit_coherence_rejects_nonincreasing_limit_children():
    t = realize_multi(OMEGA, 1)[0]
    kids = (t.children[2], t.children[1])
    bad = replace(t, children=kids, tail=TailSpec(4, "limit"))
    with pytest.raises(AuditError):
        audit_rank(bad, exact=False)


def test_prune_then_audit_infinite_ranks():
    # the annotation calculus tracks passes that pruning cannot finish
    from cbkit.space import derivative_steps

    for text, stages in (("w", 3), ("w+1", 2), ("w*2", 2), ("w^(2)", 2)):
        t = realize_cluster(0, 1, P(text))
        for _ in range(stages):
            t = prune(t)
            validate_tree(t, expect_prefix=False)
        want = derivative_steps(CbChar(P(text), 1), stages).rank
        assert audit_rank(t, exact=False) == want


def test_count_nodes():
    assert count_nodes(realize_cluster(0, 1, Ordinal.from_int(2))) == 21
    assert count_nodes(realize_multi(ONE, 2)) == 10


def _two_leaves(den1: int, den2: int) -> ClusterTree:
    leaves = tuple(ClusterTree(Fraction(1, d), Fraction(1, 8), ZERO) for d in (den1, den2))
    return ClusterTree(Fraction(0), Fraction(1, 2), ONE, leaves, TailSpec(2, "successor"))


def test_scale_budget():
    at_budget = _two_leaves(2 ** (MAX_SCALE_BITS - 1), 2)
    assert geometry_check(at_budget).annuli == 1
    restriction_check(at_budget, 0, 0)
    past_budget = _two_leaves(2 ** (MAX_SCALE_BITS - 1), 3)
    with pytest.raises(ScaleBudgetError, match=f"exceeds {MAX_SCALE_BITS} bits"):
        geometry_check(past_budget)
    with pytest.raises(ScaleBudgetError):
        restriction_check(past_budget, 0, 0)


# ---------------------------------------------------- oracle failure branches


def test_prune_rejects_children_past_a_zero_probe():
    # rank 1: every tail child has rank 0, yet a materialized child has a tail
    child = ClusterTree(F(1, 2), F(1, 4), ONE, (), TailSpec(0, "successor"))
    tree = ClusterTree(F(0), F(1), ONE, (child,), TailSpec(1, "successor"))
    with pytest.raises(TreeInvariantError, match=r"^materialized children outlive the tail probe$"):
        prune(tree)


def test_audit_rejects_rank_zero_node_with_children():
    tree = ClusterTree(F(0), F(1), ZERO, (ClusterTree(F(1, 2), F(1, 4), ZERO),), None)
    with pytest.raises(AuditError, match=r"^rank 0 node with children at /$"):
        audit_rank(tree)


def test_audit_rejects_positive_rank_without_tail():
    with pytest.raises(AuditError, match=r"^positive rank without a tail rule at /$"):
        audit_rank(ClusterTree(F(0), F(1), ONE))


def test_audit_coherence_rejects_successor_child_rank():
    bad = replace_at(realize_cluster(0, 1, Ordinal.from_int(3)), (0,), rank=ONE)
    with pytest.raises(AuditError, match=r"^successor child rank 1 at /0$"):
        audit_rank(bad, exact=False)


def test_audit_coherence_rejects_limit_child_not_below():
    bad = replace_at(realize_cluster(0, 1, OMEGA), (0,), rank=OMEGA)
    with pytest.raises(AuditError, match=r"^limit child rank w not below parent at /0$"):
        audit_rank(bad, exact=False)
