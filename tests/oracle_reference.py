"""Reference oracles on plain `Fraction` sets, independent of the fast paths.

`geometry_check` recomputes every child subtree's point set and hull
with set unions and exact rationals, and scans the children again for
each annulus.  `restriction_check` compares sets of surviving centers
directly.  Both are the straightforward readings of the separation and
restriction claims; `cbkit.oracle` answers the same questions from
scaled-integer summaries, and the differential tests require identical
reports.  Pruning itself is shared: it is the ground truth both readings
are stated in.
"""

from __future__ import annotations

from fractions import Fraction

from cbkit.oracle import AnnulusCheck, AnnulusIndexError, GeometryReport, prune_steps
from cbkit.realize import DEFAULT_CONFIG, ClusterTree, RealizationConfig, scheduled_radius


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
