"""Recursive construction of compact countable subsets of the rational line.

A cluster of rank a occupies the ball B(z, r).  Its child clusters sit at
signed offsets r_0 > r_1 > ... -> 0 from z, each inside a small ball whose
radius is half the clearance to the neighbouring offsets, so sibling balls
are pairwise disjoint and nested between consecutive offset spheres.
Children of a successor rank carry the predecessor rank; children of a
limit rank walk the canonical approximating sequence, so their ranks climb
to the parent's.

The ideal construction has infinitely many children per node.  Trees here
materialize a finite prefix and record a TailSpec: enough to regenerate
any further child on demand.  Realization is also depth-budgeted; a node
whose ideal subtree was cut off keeps an empty prefix (next_index 0) and
stays expandable.  All coordinates are exact rationals, so downstream
boundary comparisons are decided, never approximated.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import stat
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .ordinal import ONE, Ordinal, _field_state, _is_natural, _require_natural, format_ordinal, fundamental_seq, parse_ordinal

__all__ = [
    "SUCCESSOR",
    "LIMIT",
    "SCHEDULE_BASES",
    "InvalidRadiusError",
    "TreeInvariantError",
    "RealizationConfig",
    "DEFAULT_CONFIG",
    "TailSpec",
    "ClusterTree",
    "PointCloud",
    "scheduled_radius",
    "child_geometry",
    "generator_for",
    "child_rank",
    "realize_cluster",
    "realize_multi",
    "embed_ordinal",
    "materialize_tail_child",
    "extend_children",
    "materialize",
    "materialize_forest",
    "validate_tree",
    "fraction_to_text",
    "fraction_from_text",
    "tree_to_obj",
    "tree_from_obj",
    "tree_to_json",
    "tree_from_json",
    "dump_forest",
    "load_forest",
    "MAX_TREE_DEPTH",
    "MAX_REALIZE_NODES",
    "NodeBudgetError",
    "parse_config_file",
]


class InvalidRadiusError(ValueError):
    """Cluster balls need a strictly positive radius."""


class TreeInvariantError(ValueError):
    """A cluster tree violates its structural or geometric invariants."""


class NodeBudgetError(RuntimeError):
    """A realization would build more than MAX_REALIZE_NODES nodes."""


SUCCESSOR = "successor"
LIMIT = "limit"

# radius schedule name -> base b: child n sits at offset r / b^(n+1)
SCHEDULE_BASES = {"binary": 2, "thirds": 3}

_SIDE_SIGNS = {"right": 1, "left": -1}


@dataclass(frozen=True)
class RealizationConfig:
    """Knobs of the construction; defaults give the reference layout."""

    children_per_node: int = 4
    radius_schedule: str = "binary"
    side_rule: str = "right"
    max_depth: int = 6

    def __post_init__(self) -> None:
        _require_natural(self.children_per_node, "children_per_node", 2)
        if self.radius_schedule not in SCHEDULE_BASES:
            raise ValueError(f"unknown radius schedule: {self.radius_schedule!r}")
        if self.side_rule not in _SIDE_SIGNS:
            raise ValueError(f"unknown side rule: {self.side_rule!r}")
        _require_natural(self.max_depth, "max_depth")


DEFAULT_CONFIG = RealizationConfig()


@dataclass(frozen=True)
class TailSpec:
    """Generation rule for the unmaterialized part of a child family."""

    next_index: int
    generator: str

    def __post_init__(self) -> None:
        _require_natural(self.next_index, "next_index")
        if self.generator not in (SUCCESSOR, LIMIT):
            raise ValueError(f"unknown generator: {self.generator!r}")


class _OracleMemos:
    """Slots where the oracles keep what they work out about a tree.

    None of them is a field: each starts unset, and pickles, copies and
    replace() carry none.  __weakref__ is declared here because
    dataclass(slots=True) adds none before Python 3.11.
    """

    __slots__ = ("_fate_memo", "_scale_memo", "_table_memo", "__weakref__")


@_field_state
@dataclass(frozen=True, slots=True)
class ClusterTree(_OracleMemos):
    """One cluster: center, enclosing ball radius, intended rank, children."""

    center: Fraction
    radius: Fraction
    rank: Ordinal
    children: tuple["ClusterTree", ...] = ()
    tail: TailSpec | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children and self.tail is None

    def node_count(self) -> int:
        return 1 + sum(child.node_count() for child in self.children)

    def iter_nodes(self) -> Iterator["ClusterTree"]:
        """Every node of the tree, this one first, in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def centers(self) -> set[Fraction]:
        return {node.center for node in self.iter_nodes()}


def _child_path(parent: str, index: int) -> str:
    return ("" if parent == "/" else parent) + f"/{index}"


def _as_forest(trees: ClusterTree | Iterable[ClusterTree]) -> tuple[ClusterTree, ...]:
    if isinstance(trees, ClusterTree):
        return (trees,)
    forest = tuple(trees)
    for t in forest:
        if not isinstance(t, ClusterTree):
            raise TypeError("expected cluster trees")
    return forest


def _rooted(trees: ClusterTree | Iterable[ClusterTree]) -> list[tuple[str, ClusterTree]]:
    """Each tree with the path of its root: / alone, /k as tree k of several."""
    forest = _as_forest(trees)
    if len(forest) == 1:
        return [("/", forest[0])]
    return [(_child_path("/", k), t) for k, t in enumerate(forest)]


def scheduled_radius(cfg: RealizationConfig, r: Fraction, n: int) -> Fraction:
    if not isinstance(r, Fraction):
        r = Fraction(r)
    base = SCHEDULE_BASES[cfg.radius_schedule]
    return Fraction(r.numerator, r.denominator * base ** (n + 1))


def child_geometry(cfg: RealizationConfig, z: Fraction, r: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """Center and ball radius for ideal child n of a cluster at (z, r)."""
    if not isinstance(z, Fraction):
        z = Fraction(z)
    if not isinstance(r, Fraction):
        r = Fraction(r)
    base = SCHEDULE_BASES[cfg.radius_schedule]
    # the child ball takes half the clearance to the neighbouring offsets;
    # geometric schedules shrink, so that is always the gap toward child
    # n+1: r*(base-1)/base^(n+2), halved
    step_den = r.denominator * base ** (n + 1)
    x = Fraction(
        z.numerator * step_den + _SIDE_SIGNS[cfg.side_rule] * r.numerator * z.denominator,
        z.denominator * step_den,
    )
    eps = Fraction(r.numerator * (base - 1), 2 * r.denominator * base ** (n + 2))
    return x, eps


def generator_for(rank: Ordinal) -> str:
    if rank.is_zero:
        raise ValueError("rank 0 clusters have no children")
    return SUCCESSOR if rank.is_successor else LIMIT


def child_rank(rank: Ordinal, generator: str, index: int) -> Ordinal:
    """Rank of ideal child `index` under the given generation rule."""
    if generator == SUCCESSOR:
        return rank.pred()
    return fundamental_seq(rank, index)


def _build(z: Fraction, r: Fraction, alpha: Ordinal, cfg: RealizationConfig, depth_left: int) -> ClusterTree:
    if alpha.is_zero:
        return ClusterTree(z, r, alpha)
    generator = generator_for(alpha)
    if depth_left <= 0:
        return ClusterTree(z, r, alpha, (), TailSpec(0, generator))
    succ_rank = alpha.pred() if generator == SUCCESSOR else None
    children = []
    for n in range(cfg.children_per_node):
        x, eps = child_geometry(cfg, z, r, n)
        rank_n = succ_rank if succ_rank is not None else fundamental_seq(alpha, n)
        children.append(_build(x, eps, rank_n, cfg, depth_left - 1))
    return ClusterTree(z, r, alpha, tuple(children), TailSpec(cfg.children_per_node, generator))


def realize_cluster(
    z: Fraction | int,
    r: Fraction | int,
    alpha: Ordinal,
    cfg: RealizationConfig = DEFAULT_CONFIG,
) -> ClusterTree:
    """Cluster tree of rank alpha inside B(z, r)."""
    z, r = Fraction(z), Fraction(r)
    if r <= 0:
        raise InvalidRadiusError(f"radius must be positive, got {r}")
    if not isinstance(alpha, Ordinal):
        raise TypeError("alpha must be an Ordinal")
    return _build(z, r, alpha, cfg, cfg.max_depth)


def realize_multi(alpha: Ordinal, p: int, cfg: RealizationConfig = DEFAULT_CONFIG) -> list[ClusterTree]:
    """p disjoint rank-alpha clusters at integer centers 0 .. p-1.

    Centers one unit apart admit a common ball radius of half the least
    pairwise distance, so the clusters cannot interact.
    """
    _require_natural(p, "p", 1)
    radius = Fraction(1, 2)
    return [realize_cluster(Fraction(k), radius, alpha, cfg) for k in range(p)]


# Most nodes one `cbkit realize` may build.  A node costs about 0.6 kB in
# memory and 0.4 kB of tree JSON; the largest forest of the acceptance grid,
# `w^(2)+w -p 4`, has 21,588 nodes.
MAX_REALIZE_NODES = 1_000_000


def _check_node_budget(alpha: Ordinal, p: int, cfg: RealizationConfig) -> None:
    """Raise NodeBudgetError if realize_multi(alpha, p, cfg) would build more than MAX_REALIZE_NODES nodes.

    Nothing is built.  The full-tree bound p * (1 + m + ... + m^depth)
    settles most calls.  Past the cap the nodes are counted exactly, one
    level at a time with each distinct rank of a level once.  The count
    looks one level ahead, which needs no child rank: each nonzero rank
    has m children, and each of those but the children of rank 1 has m
    children of its own.  So it stops as soon as the next level's
    children pass the cap, before computing the ranks of that level.
    """
    m, cap = cfg.children_per_node, MAX_REALIZE_NODES
    total, width = 0, p
    for _ in range(cfg.max_depth + 1):
        total += width
        if total > cap:
            break
        width *= m
    else:
        return
    # total counts the levels so far; least adds the grandchildren of the
    # last one, a lower bound on the whole count
    total = least = p
    depth_left = cfg.max_depth
    level = {alpha: p}  # rank -> nodes of that rank on the level
    while least <= cap and level and depth_left:
        parents = sum(count for rank, count in level.items() if not rank.is_zero)
        total += parents * m
        depth_left -= 1
        least = total + (parents - level.get(ONE, 0)) * m * m if depth_left else total
        below: dict[Ordinal, int] = {}
        if least <= cap and depth_left:
            for rank, count in level.items():
                if rank.is_successor:
                    below[rank.pred()] = below.get(rank.pred(), 0) + count * m
                elif not rank.is_zero:
                    for n in range(m):
                        child = fundamental_seq(rank, n)
                        below[child] = below.get(child, 0) + count
        level = below
    if least > cap:
        raise NodeBudgetError(f"realization would build more than {cap} nodes")


def embed_ordinal(alpha: Ordinal, cfg: RealizationConfig = DEFAULT_CONFIG) -> ClusterTree:
    """Single cluster whose closure has characteristic (alpha, 1).

    Rank 0 yields one bare point; the finite classes are read uniformly as
    (0, p), so no two-point special case exists.
    """
    return realize_multi(alpha, 1, cfg)[0]


def materialize_tail_child(
    node: ClusterTree,
    index: int,
    cfg: RealizationConfig = DEFAULT_CONFIG,
    depth: int = 0,
) -> ClusterTree:
    """Generate ideal child `index` of a node from its tail rule."""
    if node.tail is None:
        raise ValueError("leaf nodes have no tail to materialize from")
    _require_natural(index, "index")
    _require_natural(depth, "depth")
    if index < node.tail.next_index:
        raise ValueError(
            f"child {index} is below the tail start {node.tail.next_index}"
        )
    x, eps = child_geometry(cfg, node.center, node.radius, index)
    rank = child_rank(node.rank, node.tail.generator, index)
    return _build(x, eps, rank, cfg, depth)


def extend_children(node: ClusterTree, count: int, cfg: RealizationConfig = DEFAULT_CONFIG) -> ClusterTree:
    """Materialize `count` further tail children into the prefix."""
    if node.tail is None:
        raise ValueError("leaf nodes have no tail to extend")
    _require_natural(count, "count")
    kids = list(node.children)
    start = node.tail.next_index
    for index in range(start, start + count):
        kids.append(materialize_tail_child(node, index, cfg, depth=cfg.max_depth))
    return replace(node, children=tuple(kids), tail=replace(node.tail, next_index=start + count))


@dataclass(frozen=True)
class PointCloud:
    """Finite sample of a tree: sorted centers plus their node paths."""

    points: tuple[Fraction, ...]
    provenance: Mapping[Fraction, str]

    def to_csv(self) -> str:
        rows = ["point,den_path"]
        rows.extend(f"{fraction_to_text(p)},{self.provenance[p]}" for p in self.points)
        return "\n".join(rows) + "\n"


def _collect(node: ClusterTree, path: str, depth: int, depth_budget: int, width_budget: int, prov: dict) -> None:
    if node.center in prov:
        raise TreeInvariantError(f"duplicate center {node.center}")
    prov[node.center] = path
    if depth == depth_budget:
        return
    for i, child in enumerate(node.children[:width_budget]):
        _collect(child, _child_path(path, i), depth + 1, depth_budget, width_budget, prov)


def _check_budgets(depth_budget: int, width_budget: int) -> None:
    if not (_is_natural(depth_budget, 1) and _is_natural(width_budget, 1)):
        raise ValueError("budgets must be >= 1")


def _cloud(roots: Iterable[tuple[str, ClusterTree]], depth_budget: int, width_budget: int) -> PointCloud:
    _check_budgets(depth_budget, width_budget)
    prov: dict[Fraction, str] = {}
    for path, tree in roots:
        _collect(tree, path, 0, depth_budget, width_budget, prov)
    return PointCloud(tuple(sorted(prov)), prov)


def materialize(tree: ClusterTree, depth_budget: int, width_budget: int) -> PointCloud:
    """Centers of all nodes within the given depth and per-node width."""
    return _cloud([("/", tree)], depth_budget, width_budget)


def materialize_forest(forest: Sequence[ClusterTree], depth_budget: int, width_budget: int) -> PointCloud:
    """Merged cloud of a forest; cluster k is rooted at path /k."""
    return _cloud(((_child_path("/", k), tree) for k, tree in enumerate(forest)), depth_budget, width_budget)


def validate_tree(
    tree: ClusterTree | Iterable[ClusterTree],
    cfg: RealizationConfig | None = None,
    expect_prefix: bool = True,
) -> None:
    """Raise TreeInvariantError unless the tree, or forest, is structurally sound.

    With a config the check is exact: child placement, radii and ranks must
    reproduce the construction.  Without one only the schedule-free
    invariants are enforced (nesting, disjointness, rank/tail coherence).
    Freshly realized trees satisfy expect_prefix; pruned trees may not,
    since their surviving children keep their original family indices.

    A forest's trees are checked in order, tree k from its root /k (a lone
    tree from /), then its root balls, which may meet only on their edges:
    a sound tree lies strictly inside its ball.  The first failure is raised.
    """
    rooted = _rooted(tree)
    for root, t in rooted:
        if not _is_rational(t):
            raise TreeInvariantError(f"non-rational geometry at {root}")
        _validate(t, root, set(), cfg, expect_prefix)
    # each ball against the one whose left edge comes just before it; the
    # tree index breaks ties, since "/10" < "/2" as text
    balls = sorted((t.center - t.radius, k, root, t.center + t.radius) for k, (root, t) in enumerate(rooted))
    for (_, _, before, right), (left, _, root, _) in zip(balls, balls[1:]):
        if left < right:
            raise TreeInvariantError(f"cluster ball overlaps {before} at {root}")


def _validate(
    node: ClusterTree,
    path: str,
    seen: set[tuple[int, int]],
    cfg: RealizationConfig | None,
    expect_prefix: bool,
) -> None:
    """validate_tree's walk.

    seen holds the centers met so far as (numerator, denominator), which is
    canonical for a Fraction.
    """
    # the caller has checked that center and radius are Fractions
    z = node.center
    if node.radius.numerator <= 0:
        raise TreeInvariantError(f"nonpositive radius at {path}")
    key = (z.numerator, z.denominator)
    if key in seen:
        raise TreeInvariantError(f"duplicate center {z} at {path}")
    seen.add(key)
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
    kids = node.children
    if not kids:
        return
    for i, child in enumerate(kids):
        if not _is_rational(child):
            raise TreeInvariantError(f"non-rational geometry at {_child_path(path, i)}")
    # Each child's checks read six values at most: the node center, the
    # outer end of the child's shell, and the child's and the next
    # child's centers and radii.  They compare as ints on the lcm of those
    # values' denominators alone, so no scale grows with the number of
    # children.
    ratios = [q.as_integer_ratio() for child in kids for q in (child.center, child.radius)]
    center_ratio = z.as_integer_ratio()
    for i, child in enumerate(kids):
        here = _child_path(path, i)
        # the first shell ends at the node radius, each later one at the
        # previous child's offset
        outer = ratios[2 * i - 2] if i else node.radius.as_integer_ratio()
        window = [center_ratio, outer, *ratios[2 * i : 2 * i + 4]]
        scale = lcm(*[den for _, den in window])
        zs, bound, c, r, *after = [num * (scale // den) for num, den in window]
        dist = abs(c - zs)
        if dist == 0:
            raise TreeInvariantError(f"child sits on the node center at {here}")
        upper = abs(bound - zs) if i else bound
        if dist + r > upper:
            raise TreeInvariantError(f"child ball escapes its shell at {here}")
        if after:
            next_c, next_r = after
            next_dist = abs(next_c - zs)
            if next_dist >= dist:
                raise TreeInvariantError(f"child offsets not strictly decreasing at {here}")
            if dist - r < next_dist:
                raise TreeInvariantError(f"child ball dips below the next offset at {here}")
            if abs(next_c - c) < r + next_r:
                raise TreeInvariantError(f"sibling balls overlap at {here}")
        if cfg is not None:
            x, eps = child_geometry(cfg, z, node.radius, i)
            if child.center != x or child.radius != eps:
                raise TreeInvariantError(f"child geometry off the schedule at {here}")
            if child.rank != child_rank(node.rank, node.tail.generator, i):
                raise TreeInvariantError(f"child rank off the recursion at {here}")
        _validate(child, here, seen, cfg, expect_prefix)


def _is_rational(node: ClusterTree) -> bool:
    return isinstance(node.center, Fraction) and isinstance(node.radius, Fraction)


def fraction_to_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def fraction_from_text(text: str) -> Fraction:
    # an exponent ("1e999999999") would make Fraction build its power of ten
    if not isinstance(text, str) or "e" in text or "E" in text:
        raise ValueError(f"not a rational number: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def tree_to_obj(tree: ClusterTree) -> dict:
    obj: dict = {
        "center": fraction_to_text(tree.center),
        "radius": fraction_to_text(tree.radius),
        "rank": format_ordinal(tree.rank),
        "children": [tree_to_obj(child) for child in tree.children],
        "tail": None,
    }
    if tree.tail is not None:
        obj["tail"] = {"next_index": tree.tail.next_index, "generator": tree.tail.generator}
    return obj


# Deepest node, in levels below its root, that a loaded tree may hold.
# The loader and the tree walks recurse once per level, so the input must
# not set the recursion depth.  Realized trees stay far shallower: one of
# finite rank that is d levels deep has at least 2^d nodes.
MAX_TREE_DEPTH = 100


def tree_from_obj(obj: dict, strict: bool = False) -> ClusterTree:
    return _load(obj, 0, strict, {}, {}, {})


def _load(
    obj: object,
    depth: int,
    strict: bool,
    ranks: dict[str, Ordinal],
    radii: dict[str, Fraction],
    tails: dict[tuple[int, str], TailSpec],
) -> ClusterTree:
    """Read a tree object at the given level below its root.

    Rank texts, radius texts and (next_index, generator) pairs repeat, so
    one load parses or builds each once, keeps it in ranks, radii and tails,
    and shares the value.  Centers are all distinct and are read one by one.
    """
    if depth > MAX_TREE_DEPTH:
        raise ValueError(f"cluster tree deeper than {MAX_TREE_DEPTH} levels")
    if not isinstance(obj, dict):
        raise ValueError("cluster tree must be a JSON object")
    missing = {"center", "radius", "rank", "children", "tail"} - obj.keys()
    if missing:
        raise ValueError(f"cluster tree object lacks {sorted(missing)}")
    text = obj["rank"]
    if not isinstance(text, str):
        raise ValueError("rank must be ordinal text")
    if not isinstance(obj["children"], list):
        raise ValueError("children must be a list")
    tail = None
    if obj["tail"] is not None:
        spec = obj["tail"]
        if not isinstance(spec, dict) or {"next_index", "generator"} - spec.keys():
            raise ValueError("tail must carry next_index and generator")
        index, generator = spec["next_index"], spec["generator"]
        # only an int and a str are shared: true and 1.0 equal 1 and hash
        # alike, yet TailSpec refuses them
        key = (index, generator) if type(index) is int and type(generator) is str else None
        tail = tails.get(key)
        if tail is None:
            tail = TailSpec(index, generator)
            if key is not None:
                tails[key] = tail
    center = fraction_from_text(obj["center"])
    radius_text = obj["radius"]
    radius = radii.get(radius_text) if isinstance(radius_text, str) else None
    if radius is None:
        radius = radii[radius_text] = fraction_from_text(radius_text)
    rank = ranks.get(text)
    if rank is None:
        rank = ranks[text] = parse_ordinal(text, strict=strict)
    # a loop, not a generator: one would close over the arguments and make
    # every read of them in this body a cell read
    children = []
    for child in obj["children"]:
        children.append(_load(child, depth + 1, strict, ranks, radii, tails))
    return ClusterTree(center, radius, rank, tuple(children), tail)


def _open_untruncated(path: str, flags: int) -> int:
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _outputs(*paths: str | Path | None):
    """Open every given path for writing, all before the first byte is written.

    Yields one file per path, None where the path is None.  Two paths
    that open the same file, through an alias or a link, are refused.  An
    existing regular file is truncated only once every path is open and
    found distinct, so a refusal or a failed open leaves it as it was.  If
    that or the run fails, the files this call created are removed again.
    """
    # a new file is made where a path resolves, past a dangling link
    created = [os.path.realpath(path) for path in paths if path is not None and not os.path.exists(path)]
    with contextlib.ExitStack() as stack:
        try:
            files = [
                None if path is None
                else stack.enter_context(open(path, "w", encoding="ascii", opener=_open_untruncated))
                for path in paths
            ]
            opened = [f for f in files if f is not None]
            stats = [os.fstat(f.fileno()) for f in opened]
            if any(os.path.samestat(a, b) for i, a in enumerate(stats) for b in stats[:i]):
                raise ValueError("tree and point outputs must be distinct paths")
            for f, info in zip(opened, stats):
                # devices such as /dev/null refuse a truncate
                if stat.S_ISREG(info.st_mode):
                    f.truncate()
            yield files
        except BaseException:
            stack.close()
            for path in created:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise


def _write_forest(objs: Sequence[dict], write: Callable[[str], object]) -> None:
    """Write tree objects as JSON: one tree as a single object, several as an array.

    The text is exactly what json.dumps(..., indent=2) makes of the one
    object or of the list, plus a newline, sent to write piece by piece.
    json's indent mode runs its pure-Python encoder and joins every chunk
    in memory; the tree schema is fixed, so it is written here directly,
    with json's own C string escaper.
    """
    if len(objs) == 1:
        _write_tree(objs[0], "\n", write)
    elif not objs:
        write("[]")
    else:
        sep = "[\n  "
        for obj in objs:
            write(sep)
            _write_tree(obj, "\n  ", write)
            sep = ",\n  "
        write("\n]")
    write("\n")


def _write_tree(obj: dict, nl: str, write: Callable[[str], object]) -> None:
    """One tree object of tree_to_obj; nl is a newline plus the indent of its braces."""
    pad = nl + "  "
    head = (
        f'{{{pad}"center": {encode_basestring_ascii(obj["center"])},'
        f'{pad}"radius": {encode_basestring_ascii(obj["radius"])},'
        f'{pad}"rank": {encode_basestring_ascii(obj["rank"])},'
        f'{pad}"children": '
    )
    tail = obj["tail"]
    if tail is None:
        end = f',{pad}"tail": null{nl}}}'
    else:
        end = (
            f',{pad}"tail": {{{pad}  "next_index": {tail["next_index"]},'
            f'{pad}  "generator": {encode_basestring_ascii(tail["generator"])}{pad}}}{nl}}}'
        )
    children = obj["children"]
    if not children:
        write(f"{head}[]{end}")
        return
    inner = pad + "  "
    sep = f"{head}[{inner}"
    for child in children:
        write(sep)
        _write_tree(child, inner, write)
        sep = f",{inner}"
    write(f"{pad}]{end}")


def _read_json(text: str) -> object:
    """json.loads for outside input; nesting too deep to decode is a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def tree_to_json(tree: ClusterTree) -> str:
    buffer = io.StringIO()
    _write_forest([tree_to_obj(tree)], buffer.write)
    return buffer.getvalue()


def tree_from_json(text: str, strict: bool = False) -> ClusterTree:
    return tree_from_obj(_read_json(text), strict)


def dump_forest(forest: Sequence[ClusterTree], path: str | Path) -> None:
    """Write one tree as a single object, several as an array."""
    objs = [tree_to_obj(tree) for tree in forest]
    with _outputs(path) as (f,):
        _write_forest(objs, f.write)


def load_forest(path: str | Path, strict: bool = False) -> tuple[ClusterTree, ...]:
    data = _read_json(Path(path).read_text())
    ranks: dict[str, Ordinal] = {}
    radii: dict[str, Fraction] = {}
    tails: dict[tuple[int, str], TailSpec] = {}
    objs = data if isinstance(data, list) else [data]
    return tuple(_load(obj, 0, strict, ranks, radii, tails) for obj in objs)


# config key -> caster, read off the type of each field's default
_CONFIG_KEYS = {f.name: type(f.default) for f in fields(RealizationConfig)}


def parse_config_file(path: str | Path) -> RealizationConfig:
    """Read a `key = value` file; unknown keys are rejected."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        caster = _CONFIG_KEYS[key]
        try:
            values[key] = caster(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return RealizationConfig(**values)
