"""Cluster tree construction: geometry, budgets, serialization."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from cbkit.ordinal import OMEGA, ONE, ZERO, Ordinal, fundamental_seq, parse_ordinal
from cbkit.realize import (
    DEFAULT_CONFIG,
    MAX_TREE_DEPTH,
    ClusterTree,
    InvalidRadiusError,
    NodeBudgetError,
    RealizationConfig,
    TailSpec,
    TreeInvariantError,
    child_geometry,
    dump_forest,
    embed_ordinal,
    extend_children,
    fraction_from_text,
    fraction_to_text,
    load_forest,
    materialize,
    materialize_forest,
    materialize_tail_child,
    parse_config_file,
    realize_cluster,
    realize_multi,
    scheduled_radius,
    tree_from_json,
    tree_from_obj,
    tree_to_json,
    validate_tree,
)
from cbkit import realize as realize_module
from cbkit.oracle import char_by_pruning
from helpers import chain_obj

P = parse_ordinal
F = Fraction

CFG3 = RealizationConfig(children_per_node=3)


# ------------------------------------------------------------------- geometry


def test_base_case_single_point():
    t = realize_cluster(0, 1, ZERO)
    assert t.is_leaf and t.rank == ZERO and t.center == 0 and t.radius == 1


def test_rank_one_centers_match_schedule():
    t = realize_cluster(0, 1, ONE, CFG3)
    assert t.centers() == {F(0), F(1, 2), F(1, 4), F(1, 8)}
    assert all(c.is_leaf for c in t.children)


def test_epsilon_formula():
    # eps_1 = half of min(r_0 - r_1, r_1 - r_2) = min(1/4, 1/8)/2
    x1, eps1 = child_geometry(CFG3, F(0), F(1), 1)
    assert x1 == F(1, 4)
    assert eps1 == F(1, 16)
    x0, eps0 = child_geometry(DEFAULT_CONFIG, F(0), F(1), 0)
    assert (x0, eps0) == (F(1, 2), F(1, 8))


def test_schedules_strictly_decrease():
    for name in ("binary", "thirds"):
        cfg = RealizationConfig(radius_schedule=name)
        radii = [scheduled_radius(cfg, F(1), n) for n in range(8)]
        assert all(a > b > 0 for a, b in zip(radii, radii[1:]))
        assert radii[0] < 1


def test_side_rule_left():
    cfg = RealizationConfig(side_rule="left")
    t = realize_cluster(0, 1, ONE, cfg)
    assert all(c.center < 0 for c in t.children)
    validate_tree(t, cfg=cfg)


def test_realize_multi_base():
    forest = realize_multi(ZERO, 3)
    assert [t.center for t in forest] == [0, 1, 2]
    assert all(t.is_leaf for t in forest)


def test_realize_multi_radius_from_pairwise_distances():
    forest = realize_multi(ONE, 2)
    centers = [t.center for t in forest]
    gaps = [abs(a - b) for i, a in enumerate(centers) for b in centers[i + 1 :]]
    assert min(gaps) / 2 == F(1, 2)
    assert all(t.radius == F(1, 2) and t.rank == ONE for t in forest)


def test_realize_multi_limit_child_ranks():
    t = realize_multi(OMEGA, 1)[0]
    assert [c.rank for c in t.children] == [Ordinal.from_int(n + 1) for n in range(4)]
    assert t.tail == TailSpec(4, "limit")


def test_successor_child_ranks():
    t = realize_cluster(0, 1, P("w+1"))
    assert all(c.rank == OMEGA for c in t.children)
    assert t.tail == TailSpec(4, "successor")


def test_embed_ordinal():
    assert embed_ordinal(ZERO).is_leaf
    assert char_by_pruning(embed_ordinal(ONE)) == __import__("cbkit").CbChar(ONE, 1)
    w = embed_ordinal(OMEGA)
    assert w.rank == OMEGA and w.radius == F(1, 2)


def test_depth_budget_leaves_promises():
    cfg = RealizationConfig(max_depth=1)
    t = realize_cluster(0, 1, P("w^(2)"), cfg)
    assert len(t.children) == 4
    for c in t.children:
        assert c.children == () and c.tail == TailSpec(0, "limit")
    validate_tree(t, cfg=cfg)


def test_invalid_inputs():
    with pytest.raises(InvalidRadiusError):
        realize_cluster(0, 0, ONE)
    with pytest.raises(InvalidRadiusError):
        realize_cluster(0, -1, ONE)
    with pytest.raises(ValueError):
        realize_multi(ONE, 0)
    with pytest.raises(TypeError):
        realize_cluster(0, 1, "w")


def test_config_validation():
    with pytest.raises(ValueError):
        RealizationConfig(children_per_node=1)
    with pytest.raises(ValueError):
        RealizationConfig(radius_schedule="golden")
    with pytest.raises(ValueError):
        RealizationConfig(side_rule="up")
    with pytest.raises(ValueError):
        RealizationConfig(max_depth=-1)


# -------------------------------------------------------------- materialization


def test_materialize_leaf():
    cloud = materialize(realize_cluster(0, 1, ZERO), 1, 1)
    assert cloud.points == (F(0),)
    assert cloud.provenance[F(0)] == "/"


def test_materialize_rank_one_width3():
    cloud = materialize(realize_cluster(0, 1, ONE), 3, 3)
    assert cloud.points == (F(0), F(1, 8), F(1, 4), F(1, 2))


def test_materialize_counts_rank2():
    cloud = materialize(realize_cluster(0, 1, Ordinal.from_int(2)), 2, 2)
    assert len(cloud.points) == 1 + 2 + 2 * 2


def test_materialize_budget_validation():
    t = realize_cluster(0, 1, ONE)
    with pytest.raises(ValueError):
        materialize(t, 0, 3)
    with pytest.raises(ValueError):
        materialize(t, 3, 0)


def test_materialize_forest_paths():
    forest = realize_multi(ONE, 2)
    cloud = materialize_forest(forest, 2, 2)
    assert cloud.provenance[F(0)] == "/0"
    assert cloud.provenance[F(1)] == "/1"
    assert cloud.provenance[F(1, 4)] == "/0/0"
    assert list(cloud.points) == sorted(cloud.points)


def test_point_cloud_csv():
    cloud = materialize(realize_cluster(0, 1, ONE, CFG3), 2, 2)
    lines = cloud.to_csv().splitlines()
    assert lines[0] == "point,den_path"
    assert lines[1] == "0/1,/"
    assert "1/2,/0" in lines


# ----------------------------------------------------------------- tail logic


def test_materialize_tail_child_extends_family():
    t = realize_cluster(0, 1, ONE, CFG3)
    c3 = materialize_tail_child(t, 3)
    assert c3.center == F(1, 16) and c3.rank == ZERO
    with pytest.raises(ValueError):
        materialize_tail_child(t, 2)  # below the tail start
    with pytest.raises(ValueError):
        materialize_tail_child(c3, 0)  # leaves have no tail


def test_extend_children_keeps_invariants():
    t = realize_multi(OMEGA, 1)[0]
    wider = extend_children(t, 3)
    assert len(wider.children) == 7
    assert wider.tail == TailSpec(7, "limit")
    assert [c.rank for c in wider.children] == [Ordinal.from_int(n + 1) for n in range(7)]
    validate_tree(wider, cfg=DEFAULT_CONFIG)


def test_extend_children_on_leaf_rejected():
    with pytest.raises(ValueError):
        extend_children(realize_cluster(0, 1, ZERO), 2)


# ----------------------------------------------------------------- validation


def test_validate_rejects_corruptions():
    t = realize_cluster(0, 1, Ordinal.from_int(2))

    bad = replace(t, radius=F(-1))
    with pytest.raises(TreeInvariantError):
        validate_tree(bad)

    # duplicate center
    kids = list(t.children)
    kids[1] = replace(kids[1], center=kids[0].center)
    with pytest.raises(TreeInvariantError):
        validate_tree(replace(t, children=tuple(kids)))

    # rank/leaf mismatch
    with pytest.raises(TreeInvariantError):
        validate_tree(ClusterTree(F(0), F(1), ONE))
    with pytest.raises(TreeInvariantError):
        validate_tree(replace(t, rank=ZERO))

    # children without a tail rule
    with pytest.raises(TreeInvariantError):
        validate_tree(replace(t, tail=None))

    # generator disagrees with the rank kind
    with pytest.raises(TreeInvariantError):
        validate_tree(replace(t, tail=TailSpec(4, "limit")))

    # off-schedule geometry is only caught with the config; shifting a
    # leaf keeps the schedule-free invariants intact
    t1 = realize_cluster(0, 1, ONE)
    kids = list(t1.children)
    kids[3] = replace(kids[3], center=F(1, 20))
    shifted = replace(t1, children=tuple(kids))
    validate_tree(shifted)
    with pytest.raises(TreeInvariantError):
        validate_tree(shifted, cfg=DEFAULT_CONFIG)


def test_validate_rejects_overlapping_siblings():
    t = realize_cluster(0, 1, ONE)
    kids = list(t.children)
    kids[1] = replace(kids[1], radius=F(1, 4))  # swallows its neighbour
    with pytest.raises(TreeInvariantError):
        validate_tree(replace(t, children=tuple(kids)))


def test_validate_grid_sample():
    for text in ("1", "3", "w", "w*2", "w^(2)", "w^(w)"):
        for t in realize_multi(P(text), 2):
            validate_tree(t, cfg=DEFAULT_CONFIG)


# -------------------------------------------------------------- serialization


def test_tree_json_round_trip():
    t = realize_cluster(0, 1, P("w+1"))
    assert tree_from_json(tree_to_json(t)) == t
    text = tree_to_json(t)
    assert '"rank": "w+1"' in text
    assert '"generator": "successor"' in text


def test_tree_json_strict_rank_parsing():
    text = tree_to_json(realize_cluster(0, 1, ZERO)).replace('"0"', '"0+0"', 1)
    tree_from_json(text)  # normalizing mode accepts
    with pytest.raises(Exception):
        tree_from_json(text, strict=True)


def test_tree_obj_shape_errors():
    with pytest.raises(ValueError):
        tree_from_json("[1, 2]")
    with pytest.raises(ValueError):
        tree_from_json('{"center": "0/1"}')
    with pytest.raises(ValueError):
        tree_from_json(
            '{"center": "0/1", "radius": "1/1", "rank": "0", "children": [], '
            '"tail": {"next_index": 0}}'
        )


def test_load_accepts_tree_at_depth_limit():
    tree = tree_from_obj(chain_obj(MAX_TREE_DEPTH))
    assert tree.node_count() == MAX_TREE_DEPTH + 1


def test_load_refuses_tree_past_depth_limit():
    with pytest.raises(ValueError, match="deeper than 100 levels"):
        tree_from_obj(chain_obj(MAX_TREE_DEPTH + 1))


def test_tree_from_json_deep_nesting():
    with pytest.raises(ValueError, match="JSON nested too deeply"):
        tree_from_json("[" * 100_000)


def test_forest_file_round_trip(tmp_path):
    single = tmp_path / "one.json"
    dump_forest(realize_multi(ONE, 1), single)
    assert len(load_forest(single)) == 1

    multi = tmp_path / "two.json"
    forest = realize_multi(ONE, 2)
    dump_forest(forest, multi)
    assert list(load_forest(multi)) == forest
    # single tree serializes as an object, several as an array
    assert single.read_text().lstrip().startswith("{")
    assert multi.read_text().lstrip().startswith("[")


def test_fraction_text():
    assert fraction_to_text(F(-3, 8)) == "-3/8"
    assert fraction_from_text("7/2") == F(7, 2)
    assert fraction_from_text("5") == F(5)
    with pytest.raises(ValueError):
        fraction_from_text("1/0")
    with pytest.raises(ValueError):
        fraction_from_text("pi")


def test_determinism():
    a = realize_multi(P("w^(2)"), 2)
    b = realize_multi(P("w^(2)"), 2)
    assert a == b
    assert [tree_to_json(x) for x in a] == [tree_to_json(x) for x in b]


# ---------------------------------------------------------------- config file


def test_parse_config_file(tmp_path):
    path = tmp_path / "r.cfg"
    path.write_text(
        "# layout\nchildren_per_node = 3\nradius_schedule = thirds\n\nmax_depth = 2\n"
    )
    cfg = parse_config_file(path)
    assert cfg == RealizationConfig(children_per_node=3, radius_schedule="thirds", max_depth=2)

    path.write_text("unknown_key = 1\n")
    with pytest.raises(ValueError):
        parse_config_file(path)

    path.write_text("ambient = rational-line\n")
    with pytest.raises(ValueError, match="unknown config key 'ambient'"):
        parse_config_file(path)

    path.write_text("children_per_node = many\n")
    with pytest.raises(ValueError):
        parse_config_file(path)

    path.write_text("just a line\n")
    with pytest.raises(ValueError):
        parse_config_file(path)


def test_config_file_keys_are_the_config_fields(tmp_path):
    path = tmp_path / "r.cfg"
    path.write_text("children_per_node = 5\nradius_schedule = thirds\nside_rule = left\nmax_depth = 1\n")
    assert parse_config_file(path) == RealizationConfig(5, "thirds", "left", 1)


# ---------------------------------------------------------------- node budget


@pytest.mark.parametrize("rank", ["0", "1", "3", "w", "w+2", "w*2", "w^(2)", "w^(w)"])
@pytest.mark.parametrize("m, depth", [(2, 0), (2, 5), (3, 3), (4, 4)])
def test_node_budget_counts_exactly(monkeypatch, rank, m, depth):
    cfg = RealizationConfig(children_per_node=m, max_depth=depth)
    nodes = sum(t.node_count() for t in realize_multi(P(rank), 2, cfg))
    monkeypatch.setattr(realize_module, "MAX_REALIZE_NODES", nodes)
    realize_module._check_node_budget(P(rank), 2, cfg)
    monkeypatch.setattr(realize_module, "MAX_REALIZE_NODES", nodes - 1)
    with pytest.raises(NodeBudgetError, match=f"more than {nodes - 1} nodes"):
        realize_module._check_node_budget(P(rank), 2, cfg)


@pytest.mark.parametrize(
    "rank, p, m, depth",
    [("20", 1, 3, 20), ("1", 1, 10**9, 10**9), ("w", 1, 10**6, 2), ("w^(w)", 10**7, 2, 0)],
)
def test_node_budget_refuses_without_building(rank, p, m, depth):
    # each would build far more than MAX_REALIZE_NODES nodes
    with pytest.raises(NodeBudgetError):
        realize_module._check_node_budget(P(rank), p, RealizationConfig(children_per_node=m, max_depth=depth))


def test_node_budget_follows_ranks_past_the_bound():
    # the full-tree bound 100^6 is far past the cap; rank 1 stops at one level
    realize_module._check_node_budget(ONE, 1, RealizationConfig(children_per_node=100, max_depth=10**9))


# ------------------------------------------------- validation failure branches


def _rank_two_root(*children: ClusterTree) -> ClusterTree:
    return ClusterTree(F(0), F(1), Ordinal.from_int(2), children, TailSpec(len(children), "successor"))


def test_validate_rejects_non_rational_geometry():
    with pytest.raises(TreeInvariantError, match=r"^non-rational geometry at /$"):
        validate_tree(replace(realize_cluster(0, 1, ONE), center=0))


def test_validate_rejects_duplicate_center():
    # the last child has no lower shell bound, so its ball may hold the
    # root's center, and a grandchild may sit on it
    grandchild = ClusterTree(F(0), F(1, 32), ZERO)
    last = ClusterTree(F(1, 8), F(3, 16), ONE, (grandchild,), TailSpec(1, "successor"))
    tree = _rank_two_root(ClusterTree(F(1, 2), F(1, 8), ZERO), last)
    with pytest.raises(TreeInvariantError, match=r"^duplicate center 0 at /1/0$"):
        validate_tree(tree)
    with pytest.raises(TreeInvariantError, match=r"^duplicate center 0$"):
        materialize(tree, 3, 3)


def test_validate_rejects_child_on_center():
    tree = _rank_two_root(ClusterTree(F(0), F(1, 4), ZERO))
    with pytest.raises(TreeInvariantError, match=r"^child sits on the node center at /0$"):
        validate_tree(tree)


def test_validate_rejects_child_below_next_offset():
    t = realize_cluster(0, 1, ONE)
    kids = list(t.children)
    kids[0] = replace(kids[0], radius=F(3, 8))  # reaches down past child 1 at 1/4
    with pytest.raises(TreeInvariantError, match=r"^child ball dips below the next offset at /0$"):
        validate_tree(replace(t, children=tuple(kids)))


def test_validate_rejects_child_rank_off_the_recursion():
    t = realize_cluster(0, 1, Ordinal.from_int(3))
    kids = list(t.children)
    kids[0] = replace(kids[0], rank=ONE)
    with pytest.raises(TreeInvariantError, match=r"^child rank off the recursion at /0$"):
        validate_tree(replace(t, children=tuple(kids)), cfg=DEFAULT_CONFIG)
