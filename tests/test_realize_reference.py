"""validate_tree on scaled integers against its plain-`Fraction` reading."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realize_reference as reference
import cbkit.realize
from cbkit.ordinal import ONE, ZERO, add, parse_ordinal
from cbkit.realize import ClusterTree, TailSpec, TreeInvariantError, realize_cluster, validate_tree
from helpers import outcome, preorder_paths, replace_at, st_config

RANKS = ("0", "1", "2", "3", "w", "w+1", "w*2", "w*2+3", "w^(2)", "w^(2)+w", "w^(w)")
MUTATIONS = ("moved", "non_dyadic", "dropped", "grown", "bumped", "flipped", "nonpositive", "shifted", "mirrored")


def shift(tree: ClusterTree, delta: Fraction) -> ClusterTree:
    """tree with every center moved by delta."""
    return replace(
        tree,
        center=tree.center + delta,
        children=tuple(shift(child, delta) for child in tree.children),
    )


def mutate(tree: ClusterTree, kind: str, data: st.DataObject) -> ClusterTree:
    nodes = preorder_paths(tree)
    path, node = nodes[data.draw(st.integers(0, len(nodes) - 1), label="node")]
    if kind == "moved":
        step = data.draw(st.integers(-8, 8).filter(bool), label="step")
        return replace_at(tree, path, center=node.center + node.radius * Fraction(step, 4))
    if kind == "non_dyadic":
        # a denominator that no child shares, and a step small enough to
        # leave most checks passing
        step = node.radius / data.draw(st.sampled_from((3, 5, 7, 48, 80, 112)), label="denominator")
        return replace_at(tree, path, center=node.center + step)
    if kind == "dropped":
        if not node.children:
            return tree
        i = data.draw(st.integers(0, len(node.children) - 1), label="child")
        return replace_at(tree, path, children=node.children[:i] + node.children[i + 1 :])
    if kind == "grown":
        # 2, 4 and 6 put a ball exactly on a bound of its schedule; 4/3
        # and 7/5 give a radius a denominator its children do not share
        factor = data.draw(st.sampled_from((Fraction(4, 3), Fraction(7, 5), 2, 3, 4, 6, 8)), label="factor")
        return replace_at(tree, path, radius=node.radius * factor)
    if kind == "bumped":
        return replace_at(tree, path, rank=add(node.rank, ONE))
    if kind == "flipped":
        if node.tail is None:
            return tree
        generator = "limit" if node.tail.generator == "successor" else "successor"
        return replace_at(tree, path, tail=replace(node.tail, generator=generator))
    if kind == "nonpositive":
        return replace_at(tree, path, radius=node.radius * data.draw(st.sampled_from((0, -1)), label="sign"))
    if kind == "mirrored":
        # the subtree reflected through its parent's center
        if not path:
            return tree
        parent = nodes[[p for p, _ in nodes].index(path[:-1])][1]
        delta = 2 * (parent.center - node.center)
    else:
        delta = node.radius * Fraction(data.draw(st.integers(-6, 6).filter(bool), label="delta"), 3)
    shifted = shift(node, delta)
    return replace_at(tree, path, center=shifted.center, children=shifted.children)


@settings(max_examples=200, deadline=None)
@given(
    cfg=st_config,
    rank=st.sampled_from(RANKS),
    offset=st.integers(-2, 2),
    radius=st.sampled_from((Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(7))),
    kinds=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=2),
    with_cfg=st.booleans(),
    expect_prefix=st.booleans(),
    data=st.data(),
)
def test_validate_tree_matches_reference(cfg, rank, offset, radius, kinds, with_cfg, expect_prefix, data):
    tree = realize_cluster(Fraction(offset), radius, parse_ordinal(rank), cfg)
    for kind in kinds:
        tree = mutate(tree, kind, data)
    given_cfg = cfg if with_cfg else None
    assert outcome(validate_tree, tree, given_cfg, expect_prefix) == outcome(
        reference.validate_tree, tree, given_cfg, expect_prefix
    )


def test_non_fraction_child_reported_before_comparisons():
    # child 0 escapes its shell, and child 1's center is an int; every
    # child's coordinates are checked before the node compares any of them
    escaping = ClusterTree(Fraction(1, 2), Fraction(3, 4), ZERO)
    tree = ClusterTree(
        Fraction(0), Fraction(1), parse_ordinal("2"),
        (escaping, ClusterTree(1, Fraction(1, 16), ZERO)), TailSpec(2, "successor"),
    )
    with pytest.raises(TreeInvariantError, match=r"^non-rational geometry at /1$"):
        validate_tree(tree)
    with pytest.raises(TreeInvariantError, match=r"^child ball escapes its shell at /0$"):
        reference.validate_tree(tree)


def leaves(rank: str, *geometry: tuple[Fraction, Fraction]) -> ClusterTree:
    """A node at 0 of radius 1 whose leaf children have the given centers and radii."""
    kids = tuple(ClusterTree(center, radius, ZERO) for center, radius in geometry)
    return ClusterTree(Fraction(0), Fraction(1), parse_ordinal(rank), kids, TailSpec(len(kids), "successor"))


@pytest.mark.parametrize(
    "tree",
    [
        # each child touches its shell's outer sphere and the next offset
        leaves("1", (Fraction(3, 4), Fraction(1, 4)), (Fraction(-1, 2), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 4))),
        # two sibling balls touch
        leaves("1", (Fraction(3, 4), Fraction(1, 4)), (Fraction(3, 8), Fraction(1, 8))),
        # the node's radius has a denominator no child has
        replace(leaves("1", (Fraction(1), Fraction(1, 2))), radius=Fraction(5, 3)),
    ],
    ids=["touching-shells", "touching-siblings", "foreign-denominator"],
)
def test_bounds_are_closed(tree):
    assert validate_tree(tree) is None
    assert reference.validate_tree(tree) is None


def test_shell_of_a_later_child_is_the_previous_offset():
    # child 1 is mirrored to the far side, so no sibling check sees it; its
    # ball reaches past child 0's offset though not past the node's ball
    tree = ClusterTree(
        Fraction(0), Fraction(1), parse_ordinal("2"),
        (ClusterTree(Fraction(1, 2), Fraction(1, 8), ZERO), ClusterTree(Fraction(-1, 4), Fraction(3, 8), ZERO)),
        TailSpec(2, "successor"),
    )
    with pytest.raises(TreeInvariantError, match=r"^child ball escapes its shell at /1$"):
        validate_tree(tree)
    assert outcome(reference.validate_tree, tree) == outcome(validate_tree, tree)


def primes_between(low: int, high: int) -> list[int]:
    sieve = bytearray([1]) * high
    for n in range(2, int(high**0.5) + 1):
        if sieve[n]:
            sieve[n * n :: n] = bytearray(len(range(n * n, high, n)))
    return [n for n in range(max(low, 2), high) if sieve[n]]


@pytest.mark.parametrize("grown", [None, 0, 200, 399])
def test_many_children_with_distinct_denominators(monkeypatch, grown):
    # every center and radius has its own prime denominator, so one scale
    # for the whole node would carry the bits of all 800 primes; each
    # comparison is scaled by six denominators at most
    k = 400
    primes = primes_between(2000, 20000)[: 2 * k]
    geometry = []
    for i in range(k):
        p, q = primes[2 * i], primes[2 * i + 1]
        # offset i just above (k - i) / (k + 1), radius a bit under 1 / (4 (k + 1))
        offset = Fraction(-((i - k) * p // (k + 1)), p)
        geometry.append((offset, Fraction(q // (4 * (k + 1)), q)))
    if grown is not None:
        center, radius = geometry[grown]
        geometry[grown] = (center, radius * 5)
    tree = leaves("1", *geometry)
    scale_bits = []

    def recorded_lcm(*dens: int) -> int:
        scale = math.lcm(*dens)
        scale_bits.append(scale.bit_length())
        return scale

    monkeypatch.setattr(cbkit.realize, "lcm", recorded_lcm)
    assert outcome(validate_tree, tree) == outcome(reference.validate_tree, tree)
    assert (outcome(validate_tree, tree) == ("returned", None)) == (grown is None)
    assert 0 < max(scale_bits) <= 6 * primes[-1].bit_length()
