"""The parent reading of `validate_tree`, on plain `Fraction` arithmetic.

`cbkit.realize.validate_tree` compares each child's values as ints on the
scale of their own denominators; this copy subtracts, adds and compares the
`Fraction`s themselves, and keys the duplicate-center set by `Fraction`.
The differential tests require the same outcome from both: no error, or
the same first `TreeInvariantError` message.

`validate_forest` is the forest check `cbkit verify` once ran itself:
each tree from its own root, then each root ball against the one whose
left edge comes just before it.  `cbkit.realize.validate_tree` reads a
forest in one call instead.
"""

from __future__ import annotations

from fractions import Fraction

from cbkit.realize import (
    ClusterTree,
    RealizationConfig,
    TreeInvariantError,
    _child_path,
    child_geometry,
    child_rank,
    generator_for,
)


def validate_tree(
    tree: ClusterTree,
    cfg: RealizationConfig | None = None,
    expect_prefix: bool = True,
) -> None:
    """Raise TreeInvariantError unless the tree is structurally sound.

    With a config the check is exact: child placement, radii and ranks must
    reproduce the construction.  Without one only the schedule-free
    invariants are enforced (nesting, disjointness, rank/tail coherence).
    Freshly realized trees satisfy expect_prefix; pruned trees may not,
    since their surviving children keep their original family indices.
    """
    _validate_from(tree, "/", cfg, expect_prefix)


def validate_forest(forest: list[ClusterTree]) -> None:
    """Raise the first TreeInvariantError of a forest's trees, then of its root balls.

    Tree k is checked from its root /k, a lone tree from /.
    """
    paths = ["/"] if len(forest) == 1 else [f"/{k}" for k in range(len(forest))]
    for tree, path in zip(forest, paths):
        _validate_from(tree, path, None, True)
    # a sound tree's points lie strictly inside its root ball, so the
    # clusters are disjoint when those balls meet at most on their edges
    roots = sorted((t.center - t.radius, i) for i, t in enumerate(forest) if t.radius > 0)
    for (_, i), (left, j) in zip(roots, roots[1:]):
        if left < forest[i].center + forest[i].radius:
            raise TreeInvariantError(f"cluster ball overlaps {paths[i]} at {paths[j]}")


def _validate_from(
    tree: ClusterTree,
    root: str,
    cfg: RealizationConfig | None,
    expect_prefix: bool,
) -> None:
    seen: set[Fraction] = set()

    def visit(node: ClusterTree, path: str) -> None:
        if not isinstance(node.center, Fraction) or not isinstance(node.radius, Fraction):
            raise TreeInvariantError(f"non-rational geometry at {path}")
        if node.radius <= 0:
            raise TreeInvariantError(f"nonpositive radius at {path}")
        if node.center in seen:
            raise TreeInvariantError(f"duplicate center {node.center} at {path}")
        seen.add(node.center)
        if node.is_leaf != node.rank.is_zero:
            raise TreeInvariantError(f"rank/leaf mismatch at {path}")
        if node.children and node.tail is None:
            raise TreeInvariantError(f"interior node without a tail rule at {path}")
        if node.tail is not None:
            generator = generator_for(node.rank)
            if node.tail.generator != generator:
                raise TreeInvariantError(f"tail generator disagrees with rank at {path}")
            if expect_prefix and node.tail.next_index != len(node.children):
                raise TreeInvariantError(f"children are not a tail prefix at {path}")
        z = node.center
        dist = [abs(child.center - z) for child in node.children]
        for i, child in enumerate(node.children):
            here = _child_path(path, i)
            if dist[i] == 0:
                raise TreeInvariantError(f"child sits on the node center at {here}")
            upper = dist[i - 1] if i else node.radius
            if dist[i] + child.radius > upper:
                raise TreeInvariantError(f"child ball escapes its shell at {here}")
            if i + 1 < len(dist):
                if dist[i + 1] >= dist[i]:
                    raise TreeInvariantError(f"child offsets not strictly decreasing at {here}")
                if dist[i] - child.radius < dist[i + 1]:
                    raise TreeInvariantError(f"child ball dips below the next offset at {here}")
                gap = abs(node.children[i + 1].center - child.center)
                if gap < child.radius + node.children[i + 1].radius:
                    raise TreeInvariantError(f"sibling balls overlap at {here}")
            if cfg is not None:
                x, eps = child_geometry(cfg, z, node.radius, i)
                if child.center != x or child.radius != eps:
                    raise TreeInvariantError(f"child geometry off the schedule at {here}")
                if node.tail is not None and child.rank != child_rank(node.rank, node.tail.generator, i):
                    raise TreeInvariantError(f"child rank off the recursion at {here}")
            visit(child, here)

    visit(tree, root)
