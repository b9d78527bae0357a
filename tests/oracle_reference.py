"""Reference oracles on plain `Fraction` sets, independent of the fast paths.

`geometry_check` recomputes every child subtree's point set and hull
with set unions and exact rationals, and scans the children again for
each annulus.  `restriction_check` compares sets of surviving centers
directly, on trees pruned by this module's own `prune`, applied beta
times.  Both are the straightforward readings of the separation and
restriction claims; `cbkit.oracle` answers the same questions from
scaled-integer summaries and per-node lifetimes, and the differential
tests require identical reports.

`restriction_check_by_rows` is the scan `cbkit.oracle.restriction_check`
once ran per case: both sides of the comparison rebuilt as sets from
every surviving node's scaled center.  The fast oracle reads per-child
distance bounds first and builds a set only when they cannot decide.

`merge_geometry` builds a forest's geometry report from its trees'
reports, field by field, and re-roots the counterexample at its tree's
index; `cbkit.oracle.geometry_check` walks the whole forest into one
tally instead.

`prune`, `prune_trace` and `char_by_pruning` are the probe-based
reading of one derivative: each node regenerates its first tail child
and asks whether that child has rank zero, and every stage is a tree of
its own, pruned from the one before.  `cbkit.oracle` reads the same
facts off each node's rank, in one walk.
These copies keep no memo on the trees.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from math import ceil

from cbkit.oracle import (
    AnnulusCheck,
    AnnulusIndexError,
    GeometryReport,
    InfiniteRankError,
    PruneReport,
    _fate,
    _raise_by,
    _scale,
    _scaled,
)
from cbkit.ordinal import ONE, ZERO, Ordinal, left_sub
from cbkit.realize import (
    ClusterTree,
    TreeInvariantError,
    child_rank,
    generator_for,
)
from cbkit.space import EMPTY_CLASS, CbChar


def _child_path(parent: str, index: int) -> str:
    return ("" if parent == "/" else parent) + f"/{index}"


def _dist_range(points: set[Fraction], lo: Fraction, hi: Fraction, z: Fraction) -> tuple[Fraction, Fraction]:
    if z <= lo:
        return lo - z, hi - z
    if z >= hi:
        return z - hi, z - lo
    # center inside the hull: only the maximum is interval-determined
    return min(abs(p - z) for p in points), max(hi - z, z - lo)


def geometry_check(tree: ClusterTree) -> GeometryReport:
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


def merge_geometry(reports: list[GeometryReport]) -> GeometryReport:
    """One forest's report from its trees' reports, taken in tree order.

    In a forest of several trees the counterexample's path is re-rooted
    at /k, tree k's root; a lone tree's report is its own.
    """
    first = next(((k, r.counterexample) for k, r in enumerate(reports) if r.counterexample is not None), None)
    counterexample = None
    if first is not None:
        k, counterexample = first
        if len(reports) > 1:
            path = f"/{k}" + ("" if counterexample.path == "/" else counterexample.path)
            counterexample = replace(counterexample, path=path)
    return GeometryReport(
        ok=all(r.ok for r in reports),
        annuli=sum(r.annuli for r in reports),
        claim1_ok=all(r.claim1_ok for r in reports),
        claim2_ok=all(r.claim2_ok for r in reports),
        claim3_ok=all(r.claim3_ok for r in reports),
        counterexample=counterexample,
    )


def _surviving_centers(tree: ClusterTree | None) -> set[Fraction]:
    if tree is None:
        return set()
    return tree.centers()


def restriction_check(tree: ClusterTree, n: int, beta: int) -> bool:
    m = len(tree.children)
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n < m:
        raise AnnulusIndexError(f"annulus index {n} outside 0..{m - 1}")
    if not isinstance(beta, int) or isinstance(beta, bool) or beta < 0:
        raise ValueError("beta must be an integer >= 0")
    z = tree.center
    d_n = abs(tree.children[n].center - z)
    if n + 1 < m:
        bound = (d_n + abs(tree.children[n + 1].center - z)) / 2
    else:
        # the last child's ball edge toward the center
        bound = d_n - tree.children[n].radius

    left: set[Fraction] = set()
    for k in range(n + 1):
        left |= _surviving_centers(prune_steps(tree.children[k], beta))
    whole = _surviving_centers(prune_steps(tree, beta))
    right = {p for p in whole if abs(p - z) >= bound}
    return left == right


def restriction_check_by_rows(tree: ClusterTree, n: int, beta: int) -> bool:
    """The lifetime reading of restriction_check, scanning every surviving row."""
    m = len(tree.children)
    if not isinstance(n, int) or isinstance(n, bool) or not 0 <= n < m:
        raise AnnulusIndexError(f"annulus index {n} outside 0..{m - 1}")
    if not isinstance(beta, int) or isinstance(beta, bool) or beta < 0:
        raise ValueError("beta must be an integer >= 0")
    z = tree.center
    d_n = abs(tree.children[n].center - z)
    if n + 1 < m:
        bound = (d_n + abs(tree.children[n + 1].center - z)) / 2
    else:
        # the last child's ball edge toward the center
        bound = d_n - tree.children[n].radius

    for child in tree.children[: n + 1]:
        _raise_by(child, beta)
    _raise_by(tree, beta)
    scale = _scale(tree)
    # (scaled center, index of the root's child holding it) by life; the
    # root's own index is m
    table = {_fate(tree)[0]: [(_scaled(z, scale), m)]}
    for i, child in enumerate(tree.children):
        for node in child.iter_nodes():
            table.setdefault(_fate(node)[0], []).append((_scaled(node.center, scale), i))
    alive = [rows for life, rows in table.items() if life is None or life >= beta]
    z_scaled, t = _scaled(z, scale), ceil(bound * scale)
    left = {v for rows in alive for v, i in rows if i <= n}
    right = {v for rows in alive for v, _ in rows if abs(v - z_scaled) >= t}
    return left == right


def prune_steps(tree: ClusterTree | None, k: int) -> ClusterTree | None:
    """`prune` applied k times."""
    for _ in range(k):
        if tree is None:
            break
        tree = prune(tree)
    return tree


def prune(tree: ClusterTree) -> ClusterTree | None:
    """One derivative pass: None when the whole subtree is isolated points."""
    return _prune(tree, {})


def _prune(tree: ClusterTree, probes: dict) -> ClusterTree | None:
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
        probe = probes[key] = (
            child_rank(tree.rank, tail.generator, tail.next_index).is_zero,
            left_sub(ONE, tree.rank),
        )
    kept = tuple(_prune(c, probes) for c in tree.children if c.children or c.tail is not None)
    probe_is_zero, pruned_rank = probe
    if probe_is_zero:
        if kept:
            raise TreeInvariantError("materialized children outlive the tail probe")
        return ClusterTree(tree.center, tree.radius, ZERO)
    return ClusterTree(tree.center, tree.radius, pruned_rank, kept, tail)


def _has_tail(tree: ClusterTree) -> bool:
    return tree.tail is not None or any(_has_tail(c) for c in tree.children)


def prune_trace(forest: list[ClusterTree], *, max_stages: int = 32) -> list[PruneReport]:
    """Node counts after each pass, one stage forest at a time."""
    reports = []
    for stage in range(1, max_stages + 1):
        if not forest:
            break
        before = sum(t.node_count() for t in forest)
        forest = [p for p in map(prune, forest) if p is not None]
        after = sum(t.node_count() for t in forest)
        reports.append(PruneReport(stage, before - after, after, not any(_has_tail(t) for t in forest)))
    return reports


class StageBudgetError(RuntimeError):
    """The reference prunes one stage tree per pass, so it caps the passes."""


def char_by_pruning(forest: list[ClusterTree], stage_cap: int = 32) -> CbChar:
    for t in forest:
        if not t.rank.is_finite:
            raise InfiniteRankError(f"root rank {t.rank} is not finite")
    stage = 0
    while True:
        if not any(_has_tail(t) for t in forest):
            survivors = sum(t.node_count() for t in forest)
            if survivors == 0:
                return EMPTY_CLASS
            return CbChar(Ordinal.from_int(stage), survivors)
        if stage >= stage_cap:
            raise StageBudgetError(f"no finite stage within {stage_cap} passes")
        forest = [p for p in map(prune, forest) if p is not None]
        stage += 1
