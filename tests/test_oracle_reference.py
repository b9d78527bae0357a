"""The geometry and restriction oracles against their plain-`Fraction` readings.

A forest's structure check is compared here too, since this module's
mutations move centers only.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_reference as reference
import realize_reference
from cbkit.ordinal import ONE, ZERO, parse_ordinal
from cbkit.realize import (
    MAX_TREE_DEPTH,
    ClusterTree,
    RealizationConfig,
    TailSpec,
    extend_children,
    fraction_to_text,
    generator_for,
    realize_cluster,
    tree_from_obj,
    validate_tree,
)
from cbkit.oracle import (
    audit_char,
    char_by_pruning,
    geometry_check,
    prune,
    prune_steps,
    prune_trace,
    restriction_check,
)
from helpers import FixedDraws, outcome, preorder_paths, replace_at, st_config

RANKS = ("0", "1", "2", "3", "w", "w+1", "w*2", "w*2+3", "w^(2)", "w^(2)+w", "w^(w)")

MUTATIONS = ("moved", "duplicated", "negated", "non_dyadic", "inside_hull")


def mutate(tree: ClusterTree, kind: str, data: st.DataObject) -> ClusterTree:
    nodes = preorder_paths(tree)
    path, node = nodes[data.draw(st.integers(0, len(nodes) - 1), label="node")]
    z = node.center
    if kind == "moved":
        step = data.draw(st.integers(-8, 8).filter(bool), label="step")
        z += node.radius * Fraction(step, 4)
    elif kind == "duplicated":
        z = nodes[data.draw(st.integers(0, len(nodes) - 1), label="source")][1].center
    elif kind == "negated":
        z = -z
    elif kind == "non_dyadic":
        z += node.radius / data.draw(st.sampled_from((3, 5, 7, 9)), label="denominator")
    elif node.children:
        # inside the hull of the first child's subtree, or between the
        # first two children when the first is a leaf
        first = node.children[0]
        other = first.children[-1] if first.children else node.children[-1]
        z = (first.center + other.center) / 2
    return replace_at(tree, path, center=z)


@settings(max_examples=60, deadline=None)
@given(
    cfg=st_config,
    rank=st.sampled_from(RANKS),
    offset=st.integers(-2, 2),
    kinds=st.lists(st.sampled_from(MUTATIONS), max_size=2),
    data=st.data(),
)
def test_oracles_match_reference(cfg, rank, offset, kinds, data):
    tree = realize_cluster(Fraction(offset), Fraction(1, 2), parse_ordinal(rank), cfg)
    for kind in kinds:
        tree = mutate(tree, kind, data)

    fast = geometry_check(tree)
    slow = reference.geometry_check(tree)
    assert fast.to_obj() == slow.to_obj()
    assert fast == slow

    m = len(tree.children)
    for n in [*range(min(m, 4)), m]:
        for beta in range(4):
            assert outcome(restriction_check, tree, n, beta) == outcome(
                reference.restriction_check, tree, n, beta
            ), (n, beta)


@settings(max_examples=60, deadline=None)
@given(
    cfg=st_config,
    ranks=st.lists(st.sampled_from(RANKS), min_size=1, max_size=3),
    offsets=st.lists(st.integers(-3, 3), min_size=3, max_size=3, unique=True),
    kinds=st.lists(st.sampled_from((None, *MUTATIONS)), min_size=3, max_size=3),
    data=st.data(),
)
# the empty forest once, so the draws go to forests of one to three trees
@example(cfg=RealizationConfig(), ranks=[], offsets=[0, 1, 2], kinds=[None, None, None], data=FixedDraws(at=0))
@example(
    # both trees break a claim, so only the first tree's counterexample is right
    cfg=RealizationConfig(),
    ranks=["2", "2"],
    offsets=[0, 1, 2],
    kinds=["negated", "negated", None],
    data=FixedDraws(node=3, at=0),
)
def test_forest_geometry_merges_its_trees(cfg, ranks, offsets, kinds, data):
    forest = [
        realize_cluster(Fraction(offset), Fraction(1, 2), parse_ordinal(rank), cfg)
        for rank, offset in zip(ranks, offsets)
    ]
    forest = [t if kind is None else mutate(t, kind, data) for t, kind in zip(forest, kinds)]

    report = geometry_check(forest)
    merged = reference.merge_geometry([geometry_check(t) for t in forest])
    assert report == merged
    assert report.to_obj() == merged.to_obj()
    for t in forest:
        assert geometry_check(t) == geometry_check([t])

    at = data.draw(st.integers(0, len(forest)), label="at")
    with pytest.raises(TypeError) as info:
        geometry_check([*forest[:at], "not a tree", *forest[at:]])
    assert str(info.value) == "expected cluster trees"


@settings(max_examples=60, deadline=None)
@given(
    cfg=st_config,
    size=st.integers(1, 3),
    ranks=st.lists(st.sampled_from(RANKS), min_size=3, max_size=3),
    offsets=st.lists(st.integers(-1, 1), min_size=3, max_size=3),
    kinds=st.lists(st.sampled_from((None, *MUTATIONS)), min_size=3, max_size=3),
    data=st.data(),
)
# the empty forest once, so the draws go to forests of one to three trees
@example(
    cfg=RealizationConfig(),
    size=0,
    ranks=["1", "1", "1"],
    offsets=[0, 1, 0],
    kinds=[None, None, None],
    data=FixedDraws(),
)
@example(
    # sound trees whose balls meet on one center, past a pair that touches
    cfg=RealizationConfig(),
    size=3,
    ranks=["1", "1", "1"],
    offsets=[1, 0, 1],
    kinds=[None, None, None],
    data=FixedDraws(),
)
def test_forest_structure_matches_the_per_tree_checks(cfg, size, ranks, offsets, kinds, data):
    # a repeated offset puts two root balls on one center, and a moved
    # root can overlap its neighbour by part of a ball
    forest = [
        realize_cluster(Fraction(offset), Fraction(1, 2), parse_ordinal(rank), cfg)
        for rank, offset in zip(ranks[:size], offsets)
    ]
    forest = [t if kind is None else mutate(t, kind, data) for t, kind in zip(forest, kinds)]

    assert outcome(validate_tree, forest) == outcome(realize_reference.validate_forest, forest)
    for t in forest:
        assert outcome(validate_tree, t) == outcome(validate_tree, [t])


PRUNE_RANKS = RANKS + ("4", "w+2", "w^(w)+1", "w^(w+1)", "w^(w^(2))")
TAIL_CHANGES = ("extended", "next_index", "retyped", "flipped", "tailless")


def change_tail(tree: ClusterTree, kind: str, cfg: RealizationConfig, data: st.DataObject) -> ClusterTree:
    """tree with one node's tail family changed, as the kind says."""
    nodes = [(p, n) for p, n in preorder_paths(tree) if n.tail is not None]
    if kind == "extended":
        # extend_children regenerates children from the rank, so it needs
        # a node whose tail generator still fits its rank
        nodes = [(p, n) for p, n in nodes if not n.rank.is_zero and n.tail.generator == generator_for(n.rank)]
    if not nodes:
        return tree
    path, node = nodes[data.draw(st.integers(0, len(nodes) - 1), label="node")]
    if kind == "extended":
        grown = extend_children(node, data.draw(st.integers(1, 3), label="count"), cfg)
        return replace_at(tree, path, children=grown.children, tail=grown.tail)
    if kind == "next_index":
        index = data.draw(st.integers(0, 8), label="next_index")
        return replace_at(tree, path, tail=replace(node.tail, next_index=index))
    if kind == "retyped":
        return replace_at(tree, path, rank=parse_ordinal(data.draw(st.sampled_from(PRUNE_RANKS), label="rank")))
    if kind == "flipped":
        generator = "limit" if node.tail.generator == "successor" else "successor"
        return replace_at(tree, path, tail=replace(node.tail, generator=generator))
    return replace_at(tree, path, tail=None) if node.children else tree


def pruned_passes(prune_fn, tree: ClusterTree | None, passes: int = 4) -> list:
    """The trees after each pass until none is left, or the error that ended them."""
    out = []
    for _ in range(passes):
        if tree is None:
            break
        kind, tree = outcome(prune_fn, tree)
        out.append((kind, tree))
        if kind != "returned":
            break
    return out


@settings(max_examples=80, deadline=None)
@given(
    cfg=st_config,
    rank=st.sampled_from(PRUNE_RANKS),
    kinds=st.lists(st.sampled_from(TAIL_CHANGES), max_size=2),
    data=st.data(),
)
# a flipped root generator once let "extended" grow the root of rank w by
# successor children, which raised in the test body itself
@example(
    cfg=RealizationConfig(2, "binary", "right", 1),
    rank="w",
    kinds=["flipped", "extended"],
    data=FixedDraws(node=0, count=1, other="1"),
)
# a rank-1 root with a flipped generator raises at stage 1
@example(cfg=RealizationConfig(), rank="1", kinds=["flipped"], data=FixedDraws(node=0, other="1"))
# a tailless root and no tail anywhere: no pass runs, so nothing raises
@example(cfg=RealizationConfig(), rank="1", kinds=["tailless"], data=FixedDraws(node=0, other="0"))
def test_pruning_matches_probe_reference(cfg, rank, kinds, data):
    tree = realize_cluster(Fraction(0), Fraction(1, 2), parse_ordinal(rank), cfg)
    for kind in kinds:
        tree = change_tail(tree, kind, cfg, data)
    assert pruned_passes(prune, tree) == pruned_passes(reference.prune, tree)
    for k in range(6):
        assert outcome(prune_steps, tree, k) == outcome(reference.prune_steps, tree, k), k
    other = realize_cluster(Fraction(4), Fraction(1, 2), parse_ordinal(data.draw(st.sampled_from(RANKS), label="other")), cfg)
    for forest in ([tree], [tree, other]):
        assert outcome(char_by_pruning, forest) == outcome(reference.char_by_pruning, forest)
    m = len(tree.children)
    for n in sorted({*range(min(m, 4)), m}):
        for beta in range(5):
            assert outcome(restriction_check, tree, n, beta) == outcome(
                reference.restriction_check, tree, n, beta
            ), (n, beta)


FINITE_RANKS = ("0", "1", "2", "3", "4")


@settings(max_examples=100, deadline=None)
@given(
    cfg=st_config,
    ranks=st.lists(st.sampled_from(FINITE_RANKS), min_size=1, max_size=3),
    kinds=st.lists(st.sampled_from(TAIL_CHANGES + MUTATIONS), max_size=3),
    data=st.data(),
)
def test_pruning_agrees_with_the_audit_whenever_both_return(cfg, ranks, kinds, data):
    # verify reports both characteristics without comparing them: when the
    # exact audit passes, pruning raises nothing and counts the same roots
    forest = [realize_cluster(Fraction(4 * i), Fraction(1, 2), parse_ordinal(r), cfg) for i, r in enumerate(ranks)]
    for kind in kinds:
        i = data.draw(st.integers(0, len(forest) - 1), label="tree")
        if kind in TAIL_CHANGES:
            forest[i] = change_tail(forest[i], kind, cfg, data)
        else:
            forest[i] = mutate(forest[i], kind, data)
    pruned, audited = outcome(char_by_pruning, forest), outcome(audit_char, forest)
    if pruned[0] == audited[0] == "returned":
        assert pruned == audited


@settings(max_examples=100, deadline=None)
@given(
    cfg=st_config,
    ranks=st.lists(st.sampled_from(PRUNE_RANKS), min_size=1, max_size=3),
    kinds=st.lists(st.sampled_from(TAIL_CHANGES), max_size=3),
    max_stages=st.integers(0, 8),
    data=st.data(),
)
# an infinite root outlives every stage: the set is never finite
@example(cfg=RealizationConfig(2, "binary", "right", 2), ranks=["w"], kinds=[], max_stages=8, data=FixedDraws())
# the rank-2 tree's child, retyped to rank 3, outlives it: stage 2 raises
@example(
    cfg=RealizationConfig(2, "binary", "right", 1),
    ranks=["1", "2"],
    kinds=["retyped"],
    max_stages=8,
    data=FixedDraws(tree=1, node=1, rank="3"),
)
# a rank-30 root: thirty stages, and finite only at the last
@example(cfg=RealizationConfig(2, "binary", "right", 1), ranks=["30"], kinds=[], max_stages=30, data=FixedDraws())
def test_prune_trace_matches_pass_by_pass_reference(cfg, ranks, kinds, max_stages, data):
    forest = [realize_cluster(Fraction(4 * i), Fraction(1, 2), parse_ordinal(r), cfg) for i, r in enumerate(ranks)]
    for kind in kinds:
        i = data.draw(st.integers(0, len(forest) - 1), label="tree")
        forest[i] = change_tail(forest[i], kind, cfg, data)
    assert outcome(lambda f: prune_trace(f, max_stages=max_stages), forest) == outcome(
        lambda f: reference.prune_trace(f, max_stages=max_stages), forest
    )


def ranked(center: int, rank: str, *children: ClusterTree, generator: str | None = None, tail: bool = True) -> ClusterTree:
    """A node whose tail fits its rank, unless a generator is given or the tail is dropped."""
    r = parse_ordinal(rank)
    spec = TailSpec(len(children), generator or generator_for(r)) if tail and not r.is_zero else None
    return ClusterTree(Fraction(center), Fraction(1, 8), r, children, spec)


def test_prune_trace_of_a_chain():
    # one node of each rank from 30 down to 0, each the next one's parent
    chain = ranked(0, "0")
    for r in range(1, 31):
        chain = ranked(r, str(r), chain)
    reports = prune_trace(chain, max_stages=30)
    assert reports == reference.prune_trace([chain], max_stages=30)
    assert [(r.stage, r.removed, r.survivors) for r in reports] == [(k, 1, 31 - k) for k in range(1, 31)]
    assert [r.finite_reached for r in reports] == [False] * 29 + [True]


def test_pruning_errors_come_in_stage_order():
    # the rank-3 child would fail at stage 3, but its rank-1 parent fails
    # at stage 1 first, since the child outlives it
    late = ranked(0, "1", ranked(1, "3", ranked(2, "5", ranked(3, "0"))))
    # two stage-1 errors among the children: the first child's comes first
    tie = ranked(0, "w", ranked(1, "1", ranked(2, "0"), tail=False), ranked(3, "1", ranked(4, "0"), generator="limit"))
    # the root's own check comes before its children's, yet a restriction
    # prunes child 0 on its own before the tree
    own = ranked(0, "2", ranked(1, "1", ranked(2, "0"), tail=False), generator="limit")
    outlive, tailless, generator = (
        "materialized children outlive the tail probe",
        "interior node without a tail rule",
        "tail generator disagrees with rank",
    )
    assert outcome(prune_steps, late, 1) == ("TreeInvariantError", outlive)
    assert outcome(prune_steps, tie, 1) == ("TreeInvariantError", tailless)
    assert outcome(prune_steps, own, 1) == ("TreeInvariantError", generator)
    assert outcome(restriction_check, own, 0, 1) == ("TreeInvariantError", tailless)
    for tree in (late, tie, own):
        for k in range(6):
            assert outcome(prune_steps, tree, k) == outcome(reference.prune_steps, tree, k), k
        for forest in ([tree], [tree, late], [tie, tree]):
            assert outcome(char_by_pruning, forest) == outcome(reference.char_by_pruning, forest)
        for n in range(len(tree.children)):
            for beta in range(5):
                assert outcome(restriction_check, tree, n, beta) == outcome(
                    reference.restriction_check, tree, n, beta
                ), (n, beta)


def node(center: int, *children: ClusterTree) -> ClusterTree:
    if not children:
        return ClusterTree(Fraction(center), Fraction(1, 8), ZERO)
    return ClusterTree(Fraction(center), Fraction(1, 8), ONE, children, TailSpec(len(children), "successor"))


def test_sphere_point_reported_first():
    # children at distances 8, 4, 2 give spheres at 6 and 3; the outer
    # child's lone child sits on the first sphere, on the far side, which
    # breaks claim 3 but neither claim 1 (distance 6 is not below 6) nor 2
    on_sphere = node(0, node(8, node(-6)), node(4), node(2))
    report = geometry_check(on_sphere)
    assert report.to_obj() == reference.geometry_check(on_sphere).to_obj()
    assert (report.claim1_ok, report.claim2_ok, report.claim3_ok) == (True, True, False)
    assert report.counterexample.to_obj() == {
        "path": "/",
        "annulus": 0,
        "claim": 3,
        "point": "-6/1",
        "bound": "6/1",
    }


def test_sphere_point_outside_the_subtree_is_ignored():
    # the same value, but in a sibling cluster of the checked node
    forest = node(100, node(0, node(8), node(4), node(2)), node(-6))
    report = geometry_check(forest)
    assert report == reference.geometry_check(forest)
    assert report.counterexample.path == "/"
    # nor when that sibling is walked before the checked node
    earlier = node(100, node(-6), node(0, node(8), node(4), node(2)))
    report = geometry_check(earlier)
    assert report == reference.geometry_check(earlier)
    assert report.ok


def test_first_violation_in_post_order():
    # /0 has children at distances 2 and 4, so its sphere is at 3: the
    # first child falls inside it (claim 1) and the second outside (claim
    # 2).  The root's first sphere, at 6, passes through the middle child's
    # child 6 (claims 2 and 3).  /0 comes first in post-order.
    tree = node(0, node(8, node(10), node(12)), node(4, node(6)), node(2))
    report = geometry_check(tree)
    assert report.to_obj() == reference.geometry_check(tree).to_obj()
    assert (report.claim1_ok, report.claim2_ok, report.claim3_ok) == (False, False, False)
    assert report.counterexample.to_obj() == {
        "path": "/0",
        "annulus": 0,
        "claim": 1,
        "point": "10/1",
        "bound": "3/1",
    }


def spine_obj(levels: int, inner: Fraction) -> dict:
    """Tree object whose first children form a chain `levels` deep.

    Each node on the chain has two children: the chain goes on at offset
    r/2 with radius r/8 and a leaf sits at offset r/8 with radius r/32, so
    each sphere, at 5r/16, separates them.  The last node's first child
    sits at offset `inner` times its radius instead.
    """

    def obj(center: Fraction, radius: Fraction, children: list) -> dict:
        return {
            "center": fraction_to_text(center),
            "radius": fraction_to_text(radius),
            "rank": "1" if children else "0",
            "children": children,
            "tail": {"next_index": len(children), "generator": "successor"} if children else None,
        }

    centers, radii = [Fraction(0)], [Fraction(1)]
    for _ in range(levels):
        centers.append(centers[-1] + radii[-1] / 2)
        radii.append(radii[-1] / 8)
    centers[-1] = centers[-2] + radii[-2] * inner
    node_obj = obj(centers[-1], radii[-1], [])
    for c, r in zip(reversed(centers[:-1]), reversed(radii[:-1])):
        node_obj = obj(c, r, [node_obj, obj(c + r / 8, r / 32, [])])
    return node_obj


def test_deepest_loaded_tree_matches_reference():
    # two children on every level down to the loader's depth limit, at the
    # interpreter's default recursion limit
    assert sys.getrecursionlimit() == 1000
    for inner, ok in ((Fraction(1, 2), True), (Fraction(1, 16), False)):
        tree = tree_from_obj(spine_obj(MAX_TREE_DEPTH, inner))
        report = geometry_check(tree)
        assert report == reference.geometry_check(tree)
        assert (report.ok, report.annuli) == (ok, MAX_TREE_DEPTH)
        if not ok:
            # the last node on the chain, one level above the deepest
            assert report.counterexample.path == "/0" * (MAX_TREE_DEPTH - 1)
            assert report.counterexample.claim == 1


@settings(max_examples=150, deadline=None)
@given(
    cfg=st_config,
    rank=st.sampled_from(PRUNE_RANKS),
    offset=st.integers(-2, 2),
    kinds=st.lists(st.sampled_from(MUTATIONS + TAIL_CHANGES), max_size=3),
    data=st.data(),
)
# a second-level node moved onto the first child's center: a later child
# reaches past the sphere with a point the left side holds too
@example(
    cfg=RealizationConfig(3, "binary", "right", 2),
    rank="w",
    offset=0,
    kinds=["duplicated"],
    data=FixedDraws(node=6, source=1, n=0, beta=0),
)
def test_restriction_check_matches_row_scan(cfg, rank, offset, kinds, data):
    tree = realize_cluster(Fraction(offset), Fraction(1, 2), parse_ordinal(rank), cfg)
    for kind in kinds:
        tree = mutate(tree, kind, data) if kind in MUTATIONS else change_tail(tree, kind, cfg, data)
    n = data.draw(st.integers(0, len(tree.children)), label="n")
    beta = data.draw(st.integers(0, 6), label="beta")
    assert outcome(restriction_check, tree, n, beta) == outcome(
        reference.restriction_check_by_rows, tree, n, beta
    )


def test_restriction_check_keeps_set_semantics():
    # child 1's own child lies past the first sphere, at 6, on the far side:
    # on the point child 0 holds it is a duplicate, and the two sides agree
    # as sets; anywhere else it is missing from the left side
    for far_point, agrees in ((8, True), (9, False), (-8, False)):
        tree = node(0, node(8), node(4, node(far_point)), node(2))
        for n in range(3):
            for beta in range(3):
                fast = outcome(restriction_check, tree, n, beta)
                assert fast == outcome(reference.restriction_check_by_rows, tree, n, beta)
                assert fast == outcome(reference.restriction_check, tree, n, beta)
        assert restriction_check(tree, 0, 0) is agrees
