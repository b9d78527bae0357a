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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence

from .ordinal import ONE, ZERO, Ordinal, left_sub
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
    "AnnulusIndexError",
    "AuditError",
    "prune",
    "prune_forest",
    "prune_steps",
    "clear_prune_cache",
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


# Keyed by object identity; the stored reference keeps the key alive, so
# ids cannot be recycled under a live entry.
_PRUNE_CACHE: dict[int, tuple[ClusterTree, ClusterTree | None]] = {}


def clear_prune_cache() -> None:
    _PRUNE_CACHE.clear()


def prune(tree: ClusterTree) -> ClusterTree | None:
    """One derivative pass: None when the whole subtree is isolated points."""
    key = id(tree)
    hit = _PRUNE_CACHE.get(key)
    if hit is not None and hit[0] is tree:
        return hit[1]

    result: ClusterTree | None
    if tree.is_leaf:
        result = None
    elif tree.tail is None:
        raise TreeInvariantError("interior node without a tail rule")
    elif tree.rank.is_zero or tree.tail.generator != generator_for(tree.rank):
        raise TreeInvariantError("tail generator disagrees with rank")
    else:
        kept = tuple(p for p in (prune(c) for c in tree.children) if p is not None)
        probe_rank = child_rank(tree.rank, tree.tail.generator, tree.tail.next_index)
        if probe_rank.is_zero:
            if kept:
                raise TreeInvariantError("materialized children outlive the tail probe")
            # every ideal child was an isolated point; the center remains,
            # now isolated itself
            result = ClusterTree(tree.center, tree.radius, ZERO)
        else:
            # one derivative drops a finite rank by one and fixes an
            # infinite one: the unique g with 1 + g = rank
            result = replace(tree, rank=left_sub(ONE, tree.rank), children=kept)

    _PRUNE_CACHE[key] = (tree, result)
    return result


def prune_forest(forest: ClusterTree | Iterable[ClusterTree]) -> tuple[ClusterTree, ...]:
    return tuple(p for p in (prune(t) for t in _as_forest(forest)) if p is not None)


def prune_steps(tree: ClusterTree, k: int) -> ClusterTree | None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValueError("k must be an integer >= 0")
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


def _dist_range(points: set[Fraction], lo: Fraction, hi: Fraction, z: Fraction) -> tuple[Fraction, Fraction]:
    if z <= lo:
        return lo - z, hi - z
    if z >= hi:
        return z - hi, z - lo
    # center inside the hull: only the maximum is interval-determined
    return min(abs(p - z) for p in points), max(hi - z, z - lo)


def geometry_check(tree: ClusterTree) -> GeometryReport:
    """Check the separating spheres between consecutive child shells.

    For each node and each pair of consecutive materialized children the
    midpoint sphere must cut the subtree in two: outer children entirely
    outside it, inner children and later ones entirely inside, and no
    point of the whole cluster on the sphere itself.
    """
    violations: list[AnnulusCheck] = []
    annuli = 0

    def visit(node: ClusterTree, path: str) -> tuple[set[Fraction], Fraction, Fraction]:
        nonlocal annuli
        stats = [visit(c, _child_path(path, i)) for i, c in enumerate(node.children)]
        points: set[Fraction] = {node.center}
        lo = hi = node.center
        for pts, plo, phi in stats:
            points |= pts
            lo, hi = min(lo, plo), max(hi, phi)

        z = node.center
        m = len(node.children)
        dist = [abs(c.center - z) for c in node.children]
        for n in range(m - 1):
            annuli += 1
            bound = (dist[n] + dist[n + 1]) / 2
            for k in range(n + 1):
                dmin, _ = _dist_range(stats[k][0], stats[k][1], stats[k][2], z)
                if dmin < bound:
                    point = min(p for p in stats[k][0] if abs(p - z) < bound)
                    violations.append(AnnulusCheck(path, n, 1, point, bound))
                    break
            for k in range(n + 1, m):
                _, dmax = _dist_range(stats[k][0], stats[k][1], stats[k][2], z)
                if dmax >= bound:
                    point = min(p for p in stats[k][0] if abs(p - z) >= bound)
                    violations.append(AnnulusCheck(path, n, 2, point, bound))
                    break
            for candidate in sorted({z - bound, z + bound}):
                if candidate in points:
                    violations.append(AnnulusCheck(path, n, 3, candidate, bound))
                    break
        return points, lo, hi

    visit(tree, "/")
    claim_ok = {c: all(v.claim != c for v in violations) for c in (1, 2, 3)}
    return GeometryReport(
        ok=not violations,
        annuli=annuli,
        claim1_ok=claim_ok[1],
        claim2_ok=claim_ok[2],
        claim3_ok=claim_ok[3],
        counterexample=violations[0] if violations else None,
    )


def _surviving_centers(tree: ClusterTree | None) -> set[Fraction]:
    if tree is None:
        return set()
    return tree.centers()


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
    """
    m = len(tree.children)
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n < m:
        raise AnnulusIndexError(f"annulus index {n} outside 0..{m - 1}")
    if not isinstance(beta, int) or isinstance(beta, bool) or beta < 0:
        raise ValueError("beta must be an integer >= 0")
    z = tree.center
    d_n = abs(tree.children[n].center - z)
    d_next = (
        abs(tree.children[n + 1].center - z)
        if n + 1 < m
        else scheduled_radius(cfg, tree.radius, n + 1)
    )
    bound = (d_n + d_next) / 2

    left: set[Fraction] = set()
    for k in range(n + 1):
        left |= _surviving_centers(prune_steps(tree.children[k], beta))
    whole = _surviving_centers(prune_steps(tree, beta))
    right = {p for p in whole if abs(p - z) >= bound}
    return left == right


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
