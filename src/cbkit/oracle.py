"""Independent verification of realized cluster trees.

Pruning is the semantic ground truth here: one pass deletes every
isolated point of the set a tree denotes, and a node's center survives
exactly when infinitely many of its ideal children still contribute
points arbitrarily close to it.  The tail rule decides that from the
node's rank alone.  One derivative takes a rank to the unique g with
1 + g = rank: a finite rank drops by one and an infinite one stays.
Tail children of a successor node all carry its predecessor, so they
are isolated points exactly when the rank is 1; tail children of a
limit node carry ranks climbing to the parent's and never vanish.
Either way the tail family is gone exactly when the derived rank is 0.

So in a tree that prunes without error a node of finite rank r survives
exactly r passes and one of infinite rank every finite pass: its life.
The stage-k tree keeps the nodes of life at least k, at their ranks
after k derivatives; prune_trace counts them off one census of the
lives and builds no stage tree.  Geometry and rank audits are separate
lenses over the same trees and share no code with pruning beyond the
tree type.

Results are memoized on the trees themselves, in three private slots
that ClusterTree declares beside its fields: an interior node keeps its
life and first pruning error (message text, not an exception), and a
tree its center scale and its scaled centers grouped by life and child
for the restriction checks.  A slot starts unset and is read with
getattr and a None default, so a first read raises nothing.  The memo
lives and dies with its tree, and no pickle or copy carries it; there
is no process-wide cache to clear.  The hot loops of the geometry and
restriction checks compare Python ints: centers scaled by the least
common denominator of the tree's centers.
Realized trees have denominators 2*b^k for the schedule base b, so that
scale is the largest denominator; for any other tree its bit length is
at most the total bits of the denominators, and a scale longer than
MAX_SCALE_BITS ends the check with ScaleBudgetError.  Fractions appear
again only in a reported counterexample.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import accumulate
from math import ceil, lcm
from typing import Iterable

from .ordinal import ZERO, Ordinal, _is_natural, _require_natural, fundamental_seq
from .space import CbChar, EMPTY_CLASS, union_char
from .realize import (
    SUCCESSOR,
    ClusterTree,
    TreeInvariantError,
    _as_forest,
    _child_path,
    _rooted,
    fraction_to_text,
    generator_for,
)

__all__ = [
    "InfiniteRankError",
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


class ScaleBudgetError(RuntimeError):
    """The common denominator of a tree's centers outgrew MAX_SCALE_BITS."""


class AnnulusIndexError(IndexError):
    """Annulus index outside the materialized child range."""


class AuditError(ValueError):
    """A rank annotation disagrees with the construction rules."""


# Writers of the per-tree memo slots, which the frozen __setattr__ refuses.
_set_fate = ClusterTree._fate_memo.__set__
_set_scale = ClusterTree._scale_memo.__set__
_set_table = ClusterTree._table_memo.__set__


def _fate(tree: ClusterTree) -> tuple[int | None, tuple[int, str] | None]:
    """A node's life and the first error that pruning it as a root raises.

    life is 0 for a leaf, r for finite rank r and None for an infinite
    rank; error is (stage, message) or None.  Memoized on interior nodes.
    """
    if tree.is_leaf:
        return 0, None
    fate = getattr(tree, "_fate_memo", None)
    if fate is None:
        # leaves neither fail nor outlive a node that gets this far
        fates = [_fate(c) for c in tree.children if c.children or c.tail is not None]
        rank, tail = tree.rank, tree.tail
        life = int(rank) if rank.is_finite else None
        # a pass checks the node, then its children in order; once the node
        # has lived its life it is a bare center and their later errors
        # never come up.  min keeps the first child's error on a tie.
        errors = [e for _, e in fates if e is not None and (life is None or e[0] <= life)]
        error = None
        if tail is None:
            error = (1, "interior node without a tail rule")
        elif rank.is_zero or tail.generator != generator_for(rank):
            error = (1, "tail generator disagrees with rank")
        elif errors:
            error = min(errors, key=lambda e: e[0])
        elif life is not None and any(c is None or c >= life for c, _ in fates):
            error = (life, "materialized children outlive the tail probe")
        fate = (life, error)
        _set_fate(tree, fate)
    return fate


def _raise_by(tree: ClusterTree, stage: int) -> None:
    """Raise the first error of pruning tree, if it comes by the given stage."""
    error = _fate(tree)[1]
    if error is not None and error[0] <= stage:
        raise TreeInvariantError(error[1])


def _stage(tree: ClusterTree, k: int) -> ClusterTree | None:
    """The stage-k tree, for a tree whose pruning raises nothing by stage k."""
    life = _fate(tree)[0]
    if life is not None and life <= k:
        # a node that has just lived its life is a bare center, now isolated
        return ClusterTree(tree.center, tree.radius, ZERO) if life == k else None
    rank = tree.rank if life is None else Ordinal.from_int(life - k)
    kept = tuple([s for s in (_stage(c, k) for c in tree.children) if s is not None])
    return ClusterTree(tree.center, tree.radius, rank, kept, tree.tail)


def prune(tree: ClusterTree) -> ClusterTree | None:
    """One derivative pass: None when the whole subtree is isolated points."""
    return prune_steps(tree, 1)


def prune_forest(forest: ClusterTree | Iterable[ClusterTree]) -> tuple[ClusterTree, ...]:
    return tuple(p for p in (prune(t) for t in _as_forest(forest)) if p is not None)


def prune_steps(tree: ClusterTree, k: int) -> ClusterTree | None:
    """The tree after k passes, built in one walk: the nodes of life at least k."""
    _require_natural(k, "k")
    _raise_by(tree, k)
    return _stage(tree, k) if k else tree


def has_tail(tree: ClusterTree) -> bool:
    return any(node.tail is not None for node in tree.iter_nodes())


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
    trees = _as_forest(forest)
    lives = Counter(_fate(node)[0] for t in trees for node in t.iter_nodes())
    last = None if None in lives else max(lives, default=0)  # the longest life
    reports: list[PruneReport] = []
    before = sum(lives.values())
    for stage in range(1, max_stages + 1):
        if not before:
            break
        for t in trees:
            _raise_by(t, stage)
        after = sum(n for life, n in lives.items() if life is None or life >= stage)
        reports.append(PruneReport(stage, before - after, after, last is not None and last <= stage))
        before = after
    return reports


def char_by_pruning(forest: ClusterTree | Iterable[ClusterTree]) -> CbChar:
    """Characteristic read off by pruning alone, ignoring annotations.

    Rank equals the first stage with no tails left anywhere: from then on
    the survivors form a finite set, and its size is the count.  Without
    errors that is the largest life of a root; otherwise pruning raises
    its first error, by stage and then tree order, unless the forest has
    no tail at all.  Roots of infinite rank would survive every finite
    stage, so they are refused.
    """
    current = _as_forest(forest)
    for t in current:
        if not t.rank.is_finite:
            raise InfiniteRankError(f"root rank {t.rank} is not finite")
    fates = [_fate(t) for t in current]
    stage = max([life for life, _ in fates], default=0)
    errors = [e[0] for _, e in fates if e is not None]
    if errors:
        # a forest keeps a tail up to its first error, whose stage trees
        # raise it; with no tail at all no pass runs
        stage = min(errors) if any(has_tail(t) for t in current) else 0
    survivors = count_nodes([p for p in (prune_steps(t, stage) for t in current) if p is not None])
    if survivors == 0:
        return EMPTY_CLASS
    return CbChar(Ordinal.from_int(stage), survivors)


@dataclass(frozen=True)
class AnnulusCheck:
    """First point found violating a separation claim."""

    path: str
    annulus: int
    claim: int
    point: Fraction
    bound: Fraction

    def to_obj(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["point"], obj["bound"] = fraction_to_text(self.point), fraction_to_text(self.bound)
        return obj


@dataclass(frozen=True)
class GeometryReport:
    ok: bool
    annuli: int
    claim1_ok: bool
    claim2_ok: bool
    claim3_ok: bool
    counterexample: AnnulusCheck | None

    def to_obj(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        obj["counterexample"] = None if self.counterexample is None else self.counterexample.to_obj()
        return obj


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
    scale = getattr(tree, "_scale_memo", None)
    if scale is None:
        scale = 1
        for node in tree.iter_nodes():
            if scale % node.center.denominator:
                scale = lcm(scale, node.center.denominator)
                if scale.bit_length() > MAX_SCALE_BITS:
                    raise ScaleBudgetError(
                        f"common denominator of the centers exceeds {MAX_SCALE_BITS} bits"
                    )
        _set_scale(tree, scale)
    return scale


def _scaled(q: Fraction, scale: int) -> int:
    return q.numerator * (scale // q.denominator)


def geometry_check(tree: ClusterTree | Iterable[ClusterTree]) -> GeometryReport:
    """Check the separating spheres between consecutive child shells.

    For each node and each pair of consecutive materialized children the
    midpoint sphere must cut the subtree in two: outer children entirely
    outside it, inner children and later ones entirely inside, and no
    point of the whole cluster on the sphere itself.

    A forest is checked tree by tree into one report: annuli add up and a
    claim holds when it holds in every tree.  Violations are ordered by
    tree first, then by node in post-order, then annulus, then claim; the
    first one is the reported counterexample.  Its path starts at /k, the
    root of tree k as materialize_forest names it, when the forest has
    several trees, and at / when it has one.  Coordinates are a tree's
    centers scaled by twice their common denominator, so every midpoint
    bound is an integer as well.  The walk recurses once per level, and a
    loaded tree is at most MAX_TREE_DEPTH levels deep.
    """
    tally = _Tally()
    for root, t in _rooted(tree):
        _check_annuli(t, root, 2 * _scale(t), [], {}, tally)
    return GeometryReport(
        ok=tally.first is None,
        annuli=tally.annuli,
        claim1_ok=tally.claim_ok[1],
        claim2_ok=tally.claim_ok[2],
        claim3_ok=tally.claim_ok[3],
        counterexample=tally.first,
    )


class _Tally:
    """What geometry_check's walk has found so far."""

    __slots__ = ("annuli", "claim_ok", "first")

    def __init__(self) -> None:
        self.annuli = 0
        self.claim_ok = {1: True, 2: True, 3: True}
        self.first: AnnulusCheck | None = None


def _check_annuli(
    node: ClusterTree, path: str, scale: int, vals: list[int], latest: dict[int, int], tally: _Tally
) -> tuple[int, int]:
    """Check the subtree in post-order and return its hull.

    vals holds the scaled centers in preorder, so when a node returns its
    subtree is the suffix of vals from its own position on; latest maps a
    scaled center to its last position in vals.
    """
    z = _scaled(node.center, scale)
    start = len(vals)
    latest[z] = start
    vals.append(z)
    lo = hi = z
    if not node.children:
        return lo, hi
    starts: list[int] = []
    dist: list[int] = []
    dmin: list[int] = []
    dmax: list[int] = []
    for i, child in enumerate(node.children):
        begin = len(vals)
        child_lo, child_hi = _check_annuli(child, _child_path(path, i), scale, vals, latest, tally)
        starts.append(begin)
        dist.append(abs(vals[begin] - z))
        if z <= child_lo:
            dmin.append(child_lo - z)
            dmax.append(child_hi - z)
        elif z >= child_hi:
            dmin.append(z - child_hi)
            dmax.append(z - child_lo)
        else:
            # center inside the hull: only the maximum is interval-determined
            dmin.append(min(abs(v - z) for v in vals[begin:]))
            dmax.append(max(child_hi - z, z - child_lo))
        if child_lo < lo:
            lo = child_lo
        if child_hi > hi:
            hi = child_hi
    m = len(starts)
    if m < 2:
        return lo, hi
    starts.append(len(vals))
    tally.annuli += m - 1
    inner = list(accumulate(dmin, min))  # inner[n]: min over children 0..n
    outer = list(accumulate(reversed(dmax), max))[::-1]  # outer[k]: max over k..m-1
    for n in range(m - 1):
        bound = (dist[n] + dist[n + 1]) // 2
        near = inner[n] < bound
        far = outer[n + 1] >= bound
        point = None
        for v in (z - bound, z + bound) if bound else (z,):
            if latest.get(v, -1) >= start:
                point = v
                break
        if not (near or far or point is not None):
            continue
        claim_ok = tally.claim_ok
        claim_ok[1] = claim_ok[1] and not near
        claim_ok[2] = claim_ok[2] and not far
        claim_ok[3] = claim_ok[3] and point is None
        if tally.first is not None:
            continue
        if near:
            k = next(k for k in range(n + 1) if dmin[k] < bound)
            claim, point = 1, min(v for v in vals[starts[k] : starts[k + 1]] if abs(v - z) < bound)
        elif far:
            k = next(k for k in range(n + 1, m) if dmax[k] >= bound)
            claim, point = 2, min(v for v in vals[starts[k] : starts[k + 1]] if abs(v - z) >= bound)
        else:
            claim = 3
        tally.first = AnnulusCheck(path, n, claim, Fraction(point, scale), Fraction(bound, scale))
    return lo, hi


def _table(tree: ClusterTree) -> list[tuple[int | None, int, list[int], int, int]]:
    """The tree's nodes in groups of one life and one child of the root.

    A group is (life, index of the child, the scaled centers, their least
    and greatest distance to the root's center); the root's own index is
    len(tree.children).  Memoized.
    """
    table = getattr(tree, "_table_memo", None)
    if table is None:
        scale = _scale(tree)
        z = _scaled(tree.center, scale)
        groups: defaultdict[tuple[int | None, int], list[int]] = defaultdict(list)
        groups[_fate(tree)[0], len(tree.children)].append(z)
        for i, child in enumerate(tree.children):
            for node in child.iter_nodes():
                groups[_fate(node)[0], i].append(_scaled(node.center, scale))
        table = []
        for (life, i), points in groups.items():
            distances = [abs(v - z) for v in points]
            table.append((life, i, points, min(distances), max(distances)))
        _set_table(tree, table)
    return table


def restriction_check(tree: ClusterTree, n: int, beta: int) -> bool:
    """Pruning commutes with cutting at a separating sphere.

    The part of the beta-times-pruned cluster beyond the sphere between
    child shells n and n+1 must equal the union of the beta-times-pruned
    child subtrees 0..n on their own.  The sphere past the last
    materialized child runs along that child's ball edge nearest the
    center: a realized child's ball takes half the clearance to the
    next shell, so that edge is the midpoint whatever the schedule.

    A pruning error by stage beta of child 0..n, then of the tree, is
    raised.  The nodes left after beta passes are those of life at least
    beta, read off the tree's table: no stage tree is built, and a case
    reads the points themselves only when a later child reaches past the
    sphere.
    """
    m = len(tree.children)
    if not (_is_natural(n) and n < m):
        raise AnnulusIndexError(f"annulus index {n} outside 0..{m - 1}")
    _require_natural(beta, "beta")
    z = tree.center
    d_n = abs(tree.children[n].center - z)
    if n + 1 < m:
        bound = (d_n + abs(tree.children[n + 1].center - z)) / 2
    else:
        bound = d_n - tree.children[n].radius

    for child in tree.children[: n + 1]:
        _raise_by(child, beta)
    _raise_by(tree, beta)
    scale = _scale(tree)
    # scaled points are integers, so a point is at distance >= bound from
    # z exactly when it is at least the ceiling of the scaled bound away
    z_scaled, t = _scaled(z, scale), ceil(bound * scale)
    groups = [g for g in _table(tree) if g[0] is None or g[0] >= beta]
    # the left side is the points of children 0..n, the right side every
    # point at least t away: a left point nearer than t is missing on the
    # right, and only the groups of later children reaching t can add one
    if any(i <= n and nearest < t for _, i, _, nearest, _ in groups):
        return False
    far = [points for _, i, points, _, farthest in groups if i > n and farthest >= t]
    if not far:
        return True
    left = {v for _, i, points, _, _ in groups if i <= n for v in points}
    return all(v in left for points in far for v in points if abs(v - z_scaled) >= t)


def audit_rank(tree: ClusterTree, exact: bool = True) -> Ordinal:
    """Validate rank annotations against the generation rules.

    Exact mode expects a freshly realized tree: children are the tail
    prefix and carry exactly the scheduled ranks.  Otherwise only
    coherence is required, which pruned trees keep: successor children
    all at the predecessor rank, limit children strictly climbing below
    the parent.
    """
    _audit(tree, "/", exact, {})
    return tree.rank


def _audit(node: ClusterTree, path: str, exact: bool, limit_ranks: dict[tuple[Ordinal, int], Ordinal]) -> None:
    """audit_rank's walk.

    limit_ranks keeps the scheduled rank of child i of a limit node, per
    (rank, i): the keys repeat across the tree.
    """
    rank = node.rank
    if rank.is_zero:
        if not node.is_leaf:
            raise AuditError(f"rank 0 node with children at {path}")
        return
    if node.tail is None:
        raise AuditError(f"positive rank without a tail rule at {path}")
    generator = generator_for(rank)
    if node.tail.generator != generator:
        raise AuditError(f"tail generator disagrees with rank at {path}")
    if exact and node.tail.next_index != len(node.children):
        raise AuditError(f"children are not a tail prefix at {path}")
    previous: Ordinal | None = None
    # every child of a successor node carries its predecessor
    succ_rank = rank.pred() if generator == SUCCESSOR and node.children else None
    for i, child in enumerate(node.children):
        here = _child_path(path, i)
        if exact:
            expected = succ_rank
            if expected is None:
                expected = limit_ranks.get((rank, i))
                if expected is None:
                    expected = limit_ranks[rank, i] = fundamental_seq(rank, i)
            if child.rank != expected:
                raise AuditError(f"child rank {child.rank} != {expected} at {here}")
        elif succ_rank is not None:
            if child.rank != succ_rank:
                raise AuditError(f"successor child rank {child.rank} at {here}")
        else:
            if child.rank >= rank:
                raise AuditError(f"limit child rank {child.rank} not below parent at {here}")
            if previous is not None and child.rank <= previous:
                raise AuditError(f"limit child ranks not climbing at {here}")
            previous = child.rank
        _audit(child, here, exact, limit_ranks)


def audit_char(forest: ClusterTree | Iterable[ClusterTree], exact: bool = True) -> CbChar:
    """Characteristic of a disjoint union read from the annotations; paths as in geometry_check."""
    total = EMPTY_CLASS
    for root, t in _rooted(forest):
        _audit(t, root, exact, {})
        total = union_char(total, CbChar(t.rank, 1))
    return total
