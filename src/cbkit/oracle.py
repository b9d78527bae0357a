"""Independent verification of realized cluster trees.

Pruning is the semantic ground truth here: one pass deletes every
isolated point of the set a tree denotes, and a node's center survives
exactly when infinitely many of its ideal children still contribute
points arbitrarily close to it.  The tail rule makes that decidable
with a single regenerated probe child.  Tail children of a successor
node all carry one rank, so the probe speaks for the whole family;
tail children of a limit node carry ranks climbing to the parent's,
so they can never be wiped out by finitely many passes and the probe
(never of rank zero) reports that faithfully.

Pruned trees stay annotated: each pass rewrites the rank a node would
have after one derivative, which keeps later probes honest.  Geometry
and rank audits are separate lenses over the same trees and share no
code with pruning beyond the tree type itself.

Results are memoized on the trees themselves, under private keys in the
instance ``__dict__`` (as ``functools.cached_property`` does on frozen
dataclasses): a node keeps its one-pass pruning, and restriction checks
keep each stage's survivor summary on the stage tree.  The memo lives
and dies with its tree; there is no process-wide cache to clear.  The
hot loops of the geometry and restriction checks compare Python ints:
centers scaled by the least common denominator of the tree's centers.
Realized trees have denominators 2*b^k for the schedule base b, so that
scale is the largest denominator; for any other tree its bit length is
at most the total bits of the denominators, and a scale longer than
MAX_SCALE_BITS ends the check with ScaleBudgetError.  Fractions appear
again only in a reported counterexample.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import ceil, lcm
from typing import Iterable

from .ordinal import ONE, ZERO, Ordinal, _is_natural, _require_natural, left_sub
from .space import CbChar, EMPTY_CLASS, union_char
from .realize import (
    DEFAULT_CONFIG,
    ClusterTree,
    RealizationConfig,
    TreeInvariantError,
    _child_path,
    fraction_to_text,
    generator_for,
    child_rank,
    scheduled_radius,
)

__all__ = [
    "InfiniteRankError",
    "StageBudgetError",
    "ScaleBudgetError",
    "MAX_SCALE_BITS",
    "AnnulusIndexError",
    "AuditError",
    "prune",
    "prune_forest",
    "prune_steps",
    "has_tail",
    "count_nodes",
    "PruneReport",
    "prune_trace",
    "char_by_pruning",
    "AnnulusCheck",
    "GeometryReport",
    "geometry_check",
    "restriction_check",
    "audit_rank",
    "audit_char",
]


class InfiniteRankError(ValueError):
    """Pruning to a finite set requires finite root ranks."""


class StageBudgetError(RuntimeError):
    """Pruning exceeded its stage budget without stabilizing."""


class ScaleBudgetError(RuntimeError):
    """The common denominator of a tree's centers outgrew MAX_SCALE_BITS."""


class AnnulusIndexError(IndexError):
    """Annulus index outside the materialized child range."""


class AuditError(ValueError):
    """A rank annotation disagrees with the construction rules."""


def _as_forest(trees: ClusterTree | Iterable[ClusterTree]) -> tuple[ClusterTree, ...]:
    if isinstance(trees, ClusterTree):
        return (trees,)
    forest = tuple(trees)
    for t in forest:
        if not isinstance(t, ClusterTree):
            raise TypeError("expected cluster trees")
    return forest


# Keys of the per-tree memos in a ClusterTree's instance __dict__.
_PRUNED = "_cbkit_pruned"
_SCALE = "_cbkit_scale"
_SURVIVORS = "_cbkit_survivors"
_SORTED = "_cbkit_sorted"


def prune(tree: ClusterTree) -> ClusterTree | None:
    """One derivative pass: None when the whole subtree is isolated points."""
    return _prune(tree, {})


def _prune(tree: ClusterTree, probes: dict[tuple[Ordinal, str, int], tuple[bool, Ordinal]]) -> ClusterTree | None:
    """prune, with the rank arithmetic of one call shared across its nodes.

    probes maps (rank, generator, next_index) to whether the tail probe
    has rank zero and the node's rank after one derivative; nodes of one
    tree repeat few distinct keys.
    """
    memo = tree.__dict__
    if _PRUNED in memo:
        return memo[_PRUNED]
    if tree.is_leaf:
        return None
    tail = tree.tail
    if tail is None:
        raise TreeInvariantError("interior node without a tail rule")
    key = (tree.rank, tail.generator, tail.next_index)
    probe = probes.get(key)
    if probe is None:
        if tree.rank.is_zero or tail.generator != generator_for(tree.rank):
            raise TreeInvariantError("tail generator disagrees with rank")
        # one derivative drops a finite rank by one and fixes an infinite
        # one: the unique g with 1 + g = rank
        probe = probes[key] = (
            child_rank(tree.rank, tail.generator, tail.next_index).is_zero,
            left_sub(ONE, tree.rank),
        )
    # leaves vanish; every other node yields a tree or raises
    kept = tuple(
        [_prune(c, probes) for c in tree.children if c.children or c.tail is not None]
    )
    probe_is_zero, pruned_rank = probe
    if probe_is_zero:
        if kept:
            raise TreeInvariantError("materialized children outlive the tail probe")
        # every ideal child was an isolated point; the center remains,
        # now isolated itself
        result = ClusterTree(tree.center, tree.radius, ZERO)
    else:
        result = ClusterTree(tree.center, tree.radius, pruned_rank, kept, tail)
    memo[_PRUNED] = result
    return result


def prune_forest(forest: ClusterTree | Iterable[ClusterTree]) -> tuple[ClusterTree, ...]:
    return tuple(p for p in (prune(t) for t in _as_forest(forest)) if p is not None)


def prune_steps(tree: ClusterTree, k: int) -> ClusterTree | None:
    _require_natural(k, "k")
    current: ClusterTree | None = tree
    for _ in range(k):
        if current is None:
            return None
        current = prune(current)
    return current


def has_tail(tree: ClusterTree) -> bool:
    return any(node.tail is not None for _, node in tree.iter_nodes())


def count_nodes(forest: ClusterTree | Iterable[ClusterTree]) -> int:
    return sum(t.node_count() for t in _as_forest(forest))


@dataclass(frozen=True)
class PruneReport:
    stage: int
    removed: int
    survivors: int
    finite_reached: bool


def prune_trace(
    forest: ClusterTree | Iterable[ClusterTree],
    *,
    max_stages: int = 32,
) -> list[PruneReport]:
    """Node counts along successive passes, until empty or out of budget."""
    _require_natural(max_stages, "max_stages")
    current = _as_forest(forest)
    reports: list[PruneReport] = []
    for stage in range(1, max_stages + 1):
        if not current:
            break
        before = count_nodes(current)
        current = prune_forest(current)
        after = count_nodes(current)
        finite = not any(has_tail(t) for t in current)
        reports.append(PruneReport(stage, before - after, after, finite))
    return reports


def char_by_pruning(
    forest: ClusterTree | Iterable[ClusterTree],
    *,
    stage_cap: int = 32,
) -> CbChar:
    """Characteristic read off by pruning alone, ignoring annotations.

    Rank equals the first stage with no tails left anywhere: from then on
    the survivors form a finite set, and its size is the count.  Roots of
    infinite rank would survive every finite stage, so they are refused.
    """
    _require_natural(stage_cap, "stage_cap")
    current = _as_forest(forest)
    for t in current:
        if not t.rank.is_finite:
            raise InfiniteRankError(f"root rank {t.rank} is not finite")
    stage = 0
    while True:
        if not any(has_tail(t) for t in current):
            survivors = count_nodes(current)
            if survivors == 0:
                return EMPTY_CLASS
            return CbChar(Ordinal.from_int(stage), survivors)
        if stage >= stage_cap:
            raise StageBudgetError(f"no finite stage within {stage_cap} passes")
        current = prune_forest(current)
        stage += 1


@dataclass(frozen=True)
class AnnulusCheck:
    """First point found violating a separation claim."""

    path: str
    annulus: int
    claim: int
    point: Fraction
    bound: Fraction

    def to_obj(self) -> dict:
        return {
            "path": self.path,
            "annulus": self.annulus,
            "claim": self.claim,
            "point": fraction_to_text(self.point),
            "bound": fraction_to_text(self.bound),
        }


@dataclass(frozen=True)
class GeometryReport:
    ok: bool
    annuli: int
    claim1_ok: bool
    claim2_ok: bool
    claim3_ok: bool
    counterexample: AnnulusCheck | None

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "annuli": self.annuli,
            "claim1_ok": self.claim1_ok,
            "claim2_ok": self.claim2_ok,
            "claim3_ok": self.claim3_ok,
            "counterexample": None if self.counterexample is None else self.counterexample.to_obj(),
        }


def _centers(tree: ClusterTree) -> list[Fraction]:
    """Every center of the tree, in no particular order."""
    centers = []
    stack = [tree]
    while stack:
        node = stack.pop()
        centers.append(node.center)
        stack.extend(node.children)
    return centers


# Bit length allowed to the scale of one tree.  Every scaled center is an
# int of about that many bits, so the checks' memory grows with nodes times
# scale bits, and many distinct prime denominators make the scale grow with
# their total bits.  A realized tree's scale gains about log2(b) bits per
# child index per level (schedule base b): the acceptance grid stays within
# 36 bits; `-m 5170 --depth 1 --schedule thirds` is the first one-level
# thirds tree past the budget.
MAX_SCALE_BITS = 8192


def _scale(tree: ClusterTree) -> int:
    """Least common denominator of the tree's centers, memoized on the tree."""
    memo = tree.__dict__
    if _SCALE not in memo:
        scale = 1
        for q in _centers(tree):
            if scale % q.denominator:
                scale = lcm(scale, q.denominator)
                if scale.bit_length() > MAX_SCALE_BITS:
                    raise ScaleBudgetError(
                        f"common denominator of the centers exceeds {MAX_SCALE_BITS} bits"
                    )
        memo[_SCALE] = scale
    return memo[_SCALE]


def _scaled(q: Fraction, scale: int) -> int:
    return q.numerator * (scale // q.denominator)


def geometry_check(tree: ClusterTree) -> GeometryReport:
    """Check the separating spheres between consecutive child shells.

    For each node and each pair of consecutive materialized children the
    midpoint sphere must cut the subtree in two: outer children entirely
    outside it, inner children and later ones entirely inside, and no
    point of the whole cluster on the sphere itself.

    Violations are ordered by node in post-order, then annulus, then
    claim; the first one is the reported counterexample.  Coordinates
    are centers scaled by twice their common denominator, so every
    midpoint bound is an integer as well.
    """
    scale = 2 * _scale(tree)
    # preorder, with each node's parent index (-1 at the root) and slot
    nodes: list[ClusterTree] = []
    parent: list[int] = []
    slot: list[int] = []
    depth: list[int] = []
    stack = [(tree, -1, 0)]
    while stack:
        node, up, k = stack.pop()
        index = len(nodes)
        nodes.append(node)
        parent.append(up)
        slot.append(k)
        depth.append(depth[up] + 1 if up >= 0 else 0)
        kids = node.children
        stack.extend((kids[j], index, j) for j in range(len(kids) - 1, -1, -1))
    vals = [_scaled(node.center, scale) for node in nodes]

    # subtree i is the preorder slice [i, end[i]); lo/hi are its hull
    lo, hi = vals[:], vals[:]
    end = list(range(1, len(nodes) + 1))
    for i in range(len(nodes) - 1, 0, -1):
        up = parent[i]
        if lo[i] < lo[up]:
            lo[up] = lo[i]
        if hi[i] > hi[up]:
            hi[up] = hi[i]
        if end[i] > end[up]:
            end[up] = end[i]
    where: dict[int, list[int]] = {}
    for i, v in enumerate(vals):
        if v in where:
            where[v].append(i)
        else:
            where[v] = [i]

    def on_sphere(i: int, z: int, bound: int) -> int | None:
        for candidate in (z - bound, z + bound) if bound else (z,):
            at = where.get(candidate)
            if at is not None:
                j = bisect_left(at, i)
                if j < len(at) and at[j] < end[i]:
                    return candidate
        return None

    annuli = 0
    claim_ok = {1: True, 2: True, 3: True}
    # (post-order position, node, annulus, claim, child or point, bound)
    first: tuple[int, int, int, int, int, int] | None = None
    for i, node in enumerate(nodes):
        m = len(node.children)
        if m < 2:
            continue
        annuli += m - 1
        kids = [i + 1]
        for _ in range(m - 1):
            kids.append(end[kids[-1]])
        z = vals[i]
        dist = [abs(vals[c] - z) for c in kids]
        dmin: list[int] = []
        dmax: list[int] = []
        for c in kids:
            if z <= lo[c]:
                dmin.append(lo[c] - z)
                dmax.append(hi[c] - z)
            elif z >= hi[c]:
                dmin.append(z - hi[c])
                dmax.append(z - lo[c])
            else:
                # center inside the hull: only the maximum is interval-determined
                dmin.append(min(abs(v - z) for v in vals[c : end[c]]))
                dmax.append(max(hi[c] - z, z - lo[c]))
        inner = list(accumulate(dmin, min))  # inner[n]: min over children 0..n
        outer = list(accumulate(reversed(dmax), max))[::-1]  # outer[k]: max over k..m-1
        post = end[i] - 1 - depth[i]
        reported = first is not None and first[0] < post
        for n in range(m - 1):
            bound = (dist[n] + dist[n + 1]) // 2
            near = inner[n] < bound
            far = outer[n + 1] >= bound
            point = on_sphere(i, z, bound)
            if not (near or far or point is not None):
                continue
            claim_ok[1] = claim_ok[1] and not near
            claim_ok[2] = claim_ok[2] and not far
            claim_ok[3] = claim_ok[3] and point is None
            if reported:
                continue
            reported = True
            if near:
                k = next(k for k in range(n + 1) if dmin[k] < bound)
                first = (post, i, n, 1, kids[k], bound)
            elif far:
                k = next(k for k in range(n + 1, m) if dmax[k] >= bound)
                first = (post, i, n, 2, kids[k], bound)
            else:
                first = (post, i, n, 3, point, bound)

    counterexample = None
    if first is not None:
        _, i, n, claim, found, bound = first
        z = vals[i]
        if claim == 3:
            point = found
        else:
            inside = claim == 1
            point = min(v for v in vals[found : end[found]] if (abs(v - z) < bound) == inside)
        slots = []
        while parent[i] >= 0:
            slots.append(slot[i])
            i = parent[i]
        path = "/"
        for k in reversed(slots):
            path = _child_path(path, k)
        counterexample = AnnulusCheck(path, n, claim, Fraction(point, scale), Fraction(bound, scale))
    return GeometryReport(
        ok=first is None,
        annuli=annuli,
        claim1_ok=claim_ok[1],
        claim2_ok=claim_ok[2],
        claim3_ok=claim_ok[3],
        counterexample=counterexample,
    )


def _survivors(stage: ClusterTree | None, scale: int) -> frozenset[int]:
    """Scaled centers of a stage tree, memoized on it with their scale."""
    if stage is None:
        return frozenset()
    hit = stage.__dict__.get(_SURVIVORS)
    if hit is None or hit[0] != scale:
        points = frozenset([_scaled(q, scale) for q in _centers(stage)])
        hit = stage.__dict__[_SURVIVORS] = (scale, points)
    return hit[1]


def _sorted_survivors(stage: ClusterTree | None, scale: int) -> list[int]:
    """Scaled centers of a whole stage tree in increasing order, memoized on it.

    The stage's children are the children's own stage trees, so their
    survivor sets are usually memoized already.
    """
    if stage is None:
        return []
    hit = stage.__dict__.get(_SORTED)
    if hit is None or hit[0] != scale:
        points = {_scaled(stage.center, scale)}.union(*(_survivors(c, scale) for c in stage.children))
        hit = stage.__dict__[_SORTED] = (scale, sorted(points))
    return hit[1]


def restriction_check(
    tree: ClusterTree,
    n: int,
    beta: int,
    cfg: RealizationConfig = DEFAULT_CONFIG,
) -> bool:
    """Pruning commutes with cutting at a separating sphere.

    The part of the beta-times-pruned cluster beyond the sphere between
    child shells n and n+1 must equal the union of the beta-times-pruned
    child subtrees 0..n on their own.  The sphere past the last
    materialized child is placed against the scheduled next shell.

    Each stage tree keeps its survivors as scaled integers, so the cases
    of one tree share one summary per stage: a case is two bisects into
    the whole stage's sorted survivors plus a set comparison.
    """
    m = len(tree.children)
    if not (_is_natural(n) and n < m):
        raise AnnulusIndexError(f"annulus index {n} outside 0..{m - 1}")
    _require_natural(beta, "beta")
    z = tree.center
    d_n = abs(tree.children[n].center - z)
    d_next = (
        abs(tree.children[n + 1].center - z)
        if n + 1 < m
        else scheduled_radius(cfg, tree.radius, n + 1)
    )
    bound = (d_n + d_next) / 2

    inner = [prune_steps(tree.children[k], beta) for k in range(n + 1)]
    whole = prune_steps(tree, beta)
    scale = _scale(tree)
    left: set[int] = set()
    for stage in inner:
        left |= _survivors(stage, scale)
    # the points at distance >= bound from z: scaled points are integers,
    # so that is a prefix up to z - t and a suffix from z + t, with t the
    # ceiling of the scaled bound
    points = _sorted_survivors(whole, scale)
    z_scaled, t = _scaled(z, scale), ceil(bound * scale)
    below = bisect_right(points, z_scaled - t)
    above = max(below, bisect_left(points, z_scaled + t))
    return (
        len(left) == below + len(points) - above
        and left.issuperset(points[:below])
        and left.issuperset(points[above:])
    )


def audit_rank(tree: ClusterTree, exact: bool = True, _path: str = "/") -> Ordinal:
    """Validate rank annotations against the generation rules.

    Exact mode expects a freshly realized tree: children are the tail
    prefix and carry exactly the scheduled ranks.  Otherwise only
    coherence is required, which pruned trees keep: successor children
    all at the predecessor rank, limit children strictly climbing below
    the parent.
    """
    rank = tree.rank
    if rank.is_zero:
        if not tree.is_leaf:
            raise AuditError(f"rank 0 node with children at {_path}")
        return rank
    if tree.tail is None:
        raise AuditError(f"positive rank without a tail rule at {_path}")
    generator = generator_for(rank)
    if tree.tail.generator != generator:
        raise AuditError(f"tail generator disagrees with rank at {_path}")
    if exact and tree.tail.next_index != len(tree.children):
        raise AuditError(f"children are not a tail prefix at {_path}")
    previous: Ordinal | None = None
    for i, child in enumerate(tree.children):
        here = _child_path(_path, i)
        if exact:
            expected = child_rank(rank, generator, i)
            if child.rank != expected:
                raise AuditError(f"child rank {child.rank} != {expected} at {here}")
        elif generator == "successor":
            if child.rank != rank.pred():
                raise AuditError(f"successor child rank {child.rank} at {here}")
        else:
            if child.rank >= rank:
                raise AuditError(f"limit child rank {child.rank} not below parent at {here}")
            if previous is not None and child.rank <= previous:
                raise AuditError(f"limit child ranks not climbing at {here}")
            previous = child.rank
        audit_rank(child, exact, here)
    return rank


def audit_char(forest: ClusterTree | Iterable[ClusterTree], exact: bool = True) -> CbChar:
    """Characteristic of a disjoint union read from the annotations."""
    total = EMPTY_CLASS
    for t in _as_forest(forest):
        total = union_char(total, CbChar(audit_rank(t, exact), 1))
    return total
