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

import io
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .ordinal import Ordinal, ZERO, format_ordinal, fundamental_seq, parse_ordinal

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
    "parse_config_file",
]


class InvalidRadiusError(ValueError):
    """Cluster balls need a strictly positive radius."""


class TreeInvariantError(ValueError):
    """A cluster tree violates its structural or geometric invariants."""


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
        if (
            not isinstance(self.children_per_node, int)
            or isinstance(self.children_per_node, bool)
            or self.children_per_node < 2
        ):
            raise ValueError("children_per_node must be an integer >= 2")
        if self.radius_schedule not in SCHEDULE_BASES:
            raise ValueError(f"unknown radius schedule: {self.radius_schedule!r}")
        if self.side_rule not in _SIDE_SIGNS:
            raise ValueError(f"unknown side rule: {self.side_rule!r}")
        if not isinstance(self.max_depth, int) or isinstance(self.max_depth, bool) or self.max_depth < 0:
            raise ValueError("max_depth must be an integer >= 0")


DEFAULT_CONFIG = RealizationConfig()


@dataclass(frozen=True)
class TailSpec:
    """Generation rule for the unmaterialized part of a child family."""

    next_index: int
    generator: str

    def __post_init__(self) -> None:
        if not isinstance(self.next_index, int) or isinstance(self.next_index, bool) or self.next_index < 0:
            raise ValueError("next_index must be an integer >= 0")
        if self.generator not in (SUCCESSOR, LIMIT):
            raise ValueError(f"unknown generator: {self.generator!r}")


@dataclass(frozen=True)
class ClusterTree:
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

    def iter_nodes(self) -> Iterator[tuple[str, "ClusterTree"]]:
        """Every node with its path, in preorder."""
        stack = [("/", self)]
        while stack:
            path, node = stack.pop()
            yield path, node
            kids = node.children
            stack.extend((_child_path(path, i), kids[i]) for i in range(len(kids) - 1, -1, -1))

    def centers(self) -> set[Fraction]:
        return {node.center for _, node in self.iter_nodes()}


def _child_path(parent: str, index: int) -> str:
    return ("" if parent == "/" else parent) + f"/{index}"


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
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise ValueError("p must be an integer >= 1")
    radius = Fraction(1, 2)
    return [realize_cluster(Fraction(k), radius, alpha, cfg) for k in range(p)]


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
    if count < 0:
        raise ValueError("count must be >= 0")
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
    if depth_budget < 1 or width_budget < 1:
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
    return _cloud(((f"/{k}", tree) for k, tree in enumerate(forest)), depth_budget, width_budget)


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

    visit(tree, "/")


def fraction_to_text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def fraction_from_text(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError("expected a fraction string")
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
    return _tree_from_obj(obj, strict, {}, 0)


def _tree_from_obj(obj: dict, strict: bool, ranks: dict[str, Ordinal], depth: int) -> ClusterTree:
    """tree_from_obj, parsing each distinct rank text once per load.

    ranks maps rank text to its value; one load shares it, and strict is
    fixed for that load.  depth is the node's level below its root.
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
        tail = TailSpec(spec["next_index"], spec["generator"])
    center = fraction_from_text(obj["center"])
    radius = fraction_from_text(obj["radius"])
    rank = ranks.get(text)
    if rank is None:
        rank = ranks[text] = parse_ordinal(text, strict=strict)
    return ClusterTree(
        center,
        radius,
        rank,
        tuple(_tree_from_obj(child, strict, ranks, depth + 1) for child in obj["children"]),
        tail,
    )


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
    with Path(path).open("w", encoding="ascii") as f:
        _write_forest(objs, f.write)


def load_forest(path: str | Path, strict: bool = False) -> tuple[ClusterTree, ...]:
    data = _read_json(Path(path).read_text())
    ranks: dict[str, Ordinal] = {}
    if isinstance(data, list):
        return tuple(_tree_from_obj(obj, strict, ranks, 0) for obj in data)
    return (_tree_from_obj(data, strict, ranks, 0),)


_CONFIG_KEYS = {
    "children_per_node": int,
    "radius_schedule": str,
    "side_rule": str,
    "max_depth": int,
}


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
