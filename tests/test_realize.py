"""Cluster tree construction: geometry, budgets, serialization."""

from __future__ import annotations

import pickle
import sys
import weakref
from dataclasses import MISSING, fields, replace
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
    tree_from_json,
    tree_from_obj,
    tree_to_json,
    validate_tree,
)
from cbkit import realize as realize_module
from cbkit.oracle import char_by_pruning
from helpers import chain_obj, outcome
import realize_reference

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


def test_iter_nodes_in_preorder():
    def node(center: int, *children: ClusterTree) -> ClusterTree:
        tail = TailSpec(len(children), "successor") if children else None
        return ClusterTree(F(center), F(1, 8), ONE if children else ZERO, children, tail)

    tree = node(0, node(1, node(2), node(3, node(4))), node(5), node(6, node(7)))
    nodes = list(tree.iter_nodes())
    assert all(isinstance(n, ClusterTree) for n in nodes)
    assert [n.center for n in nodes] == [F(c) for c in range(8)]
    assert nodes[0] is tree and nodes[3] is tree.children[0].children[1]


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
        radii = [abs(child_geometry(cfg, F(0), F(1), n)[0]) for n in range(8)]
        assert all(a > b > 0 for a, b in zip(radii, radii[1:]))
        assert radii[0] < 1


@pytest.mark.parametrize("schedule", ["binary", "thirds"])
@pytest.mark.parametrize("side", ["right", "left"])
def test_int_arguments_give_the_fraction_results(schedule, side):
    cfg = RealizationConfig(radius_schedule=schedule, side_rule=side)
    for n in range(3):
        # each argument an int alone, then both
        for z, r in ((-3, F(1, 2)), (F(5, 4), 2), (1, 3), (0, 1)):
            got = child_geometry(cfg, z, r, n)
            assert all(type(v) is Fraction for v in got)
            assert got == child_geometry(cfg, F(z), F(r), n)


def test_side_rule_left():
    cfg = RealizationConfig(side_rule="left")
    t = realize_cluster(0, 1, ONE, cfg)
    assert all(c.center < 0 for c in t.children)
    realize_reference.validate_tree(t, cfg)


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
    realize_reference.validate_tree(t, cfg)


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
    # a lone tree is a forest of one, so the CSV roots it at /0 too
    lone = materialize_forest(forest[0], 2, 2)
    assert lone == materialize_forest(forest[:1], 2, 2) and lone.provenance[F(0)] == "/0"
    with pytest.raises(TypeError, match=r"^expected cluster trees$"):
        materialize_forest([forest[0], 1], 1, 1)


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
    realize_reference.validate_tree(wider, DEFAULT_CONFIG)


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

    # the invariants are schedule-free: shifting a leaf off the schedule
    # keeps them intact, and only the tests' exact reading objects
    t1 = realize_cluster(0, 1, ONE)
    kids = list(t1.children)
    kids[3] = replace(kids[3], center=F(1, 20))
    shifted = replace(t1, children=tuple(kids))
    validate_tree(shifted)
    with pytest.raises(TreeInvariantError, match=r"^child geometry off the schedule at /3$"):
        realize_reference.validate_tree(shifted, DEFAULT_CONFIG)


def test_validate_rejects_overlapping_siblings():
    t = realize_cluster(0, 1, ONE)
    kids = list(t.children)
    kids[1] = replace(kids[1], radius=F(1, 4))  # swallows its neighbour
    with pytest.raises(TreeInvariantError):
        validate_tree(replace(t, children=tuple(kids)))


def test_validate_tree_reads_a_forest():
    t = realize_cluster(0, 1, ONE)
    for tree in (t, replace(t, radius=F(-1))):
        assert outcome(validate_tree, tree) == outcome(validate_tree, [tree])
    assert validate_tree(tree=t) is None
    with pytest.raises(TypeError, match=r"^expected cluster trees$"):
        validate_tree([t, 1])
    assert validate_tree(()) is None


def test_validate_tree_orders_root_balls_by_tree_index():
    # as text "/10" < "/2", so a sort by path would name /10 first
    forest = [ClusterTree(F(c), F(1, 2), ZERO) for c in range(12)]
    forest[10] = ClusterTree(F(2), F(1, 2), ZERO)
    with pytest.raises(TreeInvariantError, match=r"^cluster ball overlaps /2 at /10$"):
        validate_tree(forest)


def test_validate_grid_sample():
    for text in ("1", "3", "w", "w*2", "w^(2)", "w^(w)"):
        for t in realize_multi(P(text), 2):
            realize_reference.validate_tree(t, DEFAULT_CONFIG)


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


def test_load_shares_radii_and_tails(tmp_path):
    path = tmp_path / "two.json"
    dump_forest(realize_multi(P("w^(2)+w"), 2), path)
    nodes = [node for tree in load_forest(path) for node in tree.iter_nodes()]
    radii: dict[Fraction, Fraction] = {}
    tails: dict[TailSpec, TailSpec] = {}
    for node in nodes:
        assert radii.setdefault(node.radius, node.radius) is node.radius
        if node.tail is not None:
            assert tails.setdefault(node.tail, node.tail) is node.tail
    assert len(nodes) > 100 * len(radii) and len(tails) <= 5
    # centers are read one by one: all distinct
    assert len({id(node.center) for node in nodes}) == len(nodes)


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


# protocol 2 and 4 pickles of a rank-1 tree with two children, as written
# before ClusterTree had slots: stored pickles must still load, and new
# ones must not differ.  Fraction pickles its text before Python 3.11 and
# its numerator and denominator since.
PICKLED_TREE = {
    2: (
        b"\x80\x02ccbkit.realize\nClusterTree\nq\x00)\x81q\x01}q\x02(X\x06\x00\x00\x00centerq\x03cfractions\nFraction\n"
        b"q\x04K\x00K\x01\x86q\x05Rq\x06X\x06\x00\x00\x00radiusq\x07h\x04K\x01K\x01\x86q\x08Rq\tX\x04\x00\x00\x00rankq\nccbkit.ordinal\nOrdinal\nq"
        b"\x0b)\x81q\x0c}q\rX\x05\x00\x00\x00termsq\x0eh\x0b)\x81q\x0f}q\x10h\x0e)sbK\x01\x86q\x11\x85q\x12sbX\x08\x00\x00\x00childrenq\x13h\x00)\x81q\x14}q\x15(h\x03h"
        b"\x04K\x01K\x02\x86q\x16Rq\x17h\x07h\x04K\x01K\x08\x86q\x18Rq\x19h\nh\x0b)\x81q\x1a}q\x1bh\x0e)sbh\x13)X\x04\x00\x00\x00tailq\x1cNubh\x00)\x81q\x1d}q\x1e(h\x03h\x04"
        b"K\x01K\x04\x86q\x1fRq h\x07h\x04K\x01K\x10\x86q!Rq\"h\nh\x1ah\x13)h\x1cNub\x86q#h\x1cccbkit.realize\nTailSpec\nq$)\x81q%}"
        b"q&(X\n\x00\x00\x00next_indexq'K\x02X\t\x00\x00\x00generatorq(X\t\x00\x00\x00successorq)ubub."
    ),
    4: (
        b"\x80\x04\x95^\x01\x00\x00\x00\x00\x00\x00\x8c\rcbkit.realize\x94\x8c\x0bClusterTree\x94\x93\x94)\x81\x94}\x94(\x8c\x06center\x94\x8c\tfractions\x94\x8c\x08"
        b"Fraction\x94\x93\x94K\x00K\x01\x86\x94R\x94\x8c\x06radius\x94h\x08K\x01K\x01\x86\x94R\x94\x8c\x04rank\x94\x8c\rcbkit.ordinal\x94\x8c\x07Ordinal\x94\x93"
        b"\x94)\x81\x94}\x94\x8c\x05terms\x94h\x11)\x81\x94}\x94h\x14)sbK\x01\x86\x94\x85\x94sb\x8c\x08children\x94h\x02)\x81\x94}\x94(h\x05h\x08K\x01K\x02\x86\x94R\x94h\x0bh\x08K\x01K"
        b"\x08\x86\x94R\x94h\x0eh\x11)\x81\x94}\x94h\x14)sbh\x19)\x8c\x04tail\x94Nubh\x02)\x81\x94}\x94(h\x05h\x08K\x01K\x04\x86\x94R\x94h\x0bh\x08K\x01K\x10\x86\x94R\x94h\x0eh h\x19)h"
        b"\"Nub\x86\x94h\"h\x00\x8c\x08TailSpec\x94\x93\x94)\x81\x94}\x94(\x8c\nnext_index\x94K\x02\x8c\tgenerator\x94\x8c\tsuccessor\x94ubub"
        b"."
    ),
}
if sys.version_info < (3, 11):
    PICKLED_TREE = {
        2: (
            b"\x80\x02ccbkit.realize\nClusterTree\nq\x00)\x81q\x01}q\x02(X\x06\x00\x00\x00centerq\x03cfractions\nFraction\n"
            b"q\x04X\x01\x00\x00\x000q\x05\x85q\x06Rq\x07X\x06\x00\x00\x00radiusq\x08h\x04X\x01\x00\x00\x001q\t\x85q\nRq\x0bX\x04\x00\x00\x00rankq\x0cccbkit.ordinal\nO"
            b"rdinal\nq\r)\x81q\x0e}q\x0fX\x05\x00\x00\x00termsq\x10h\r)\x81q\x11}q\x12h\x10)sbK\x01\x86q\x13\x85q\x14sbX\x08\x00\x00\x00childrenq\x15h\x00)\x81q"
            b"\x16}q\x17(h\x03h\x04X\x03\x00\x00\x001/2q\x18\x85q\x19Rq\x1ah\x08h\x04X\x03\x00\x00\x001/8q\x1b\x85q\x1cRq\x1dh\x0ch\r)\x81q\x1e}q\x1fh\x10)sbh\x15)X\x04\x00\x00\x00tai"
            b"lq Nubh\x00)\x81q!}q\"(h\x03h\x04X\x03\x00\x00\x001/4q#\x85q$Rq%h\x08h\x04X\x04\x00\x00\x001/16q&\x85q'Rq(h\x0ch\x1eh\x15)h Nub\x86q)"
            b"h ccbkit.realize\nTailSpec\nq*)\x81q+}q,(X\n\x00\x00\x00next_indexq-K\x02X\t\x00\x00\x00generatorq.X"
            b"\t\x00\x00\x00successorq/ubub."
        ),
        4: (
            b"\x80\x04\x95g\x01\x00\x00\x00\x00\x00\x00\x8c\rcbkit.realize\x94\x8c\x0bClusterTree\x94\x93\x94)\x81\x94}\x94(\x8c\x06center\x94\x8c\tfractions\x94\x8c\x08"
            b"Fraction\x94\x93\x94\x8c\x010\x94\x85\x94R\x94\x8c\x06radius\x94h\x08\x8c\x011\x94\x85\x94R\x94\x8c\x04rank\x94\x8c\rcbkit.ordinal\x94\x8c\x07Ordinal\x94\x93"
            b"\x94)\x81\x94}\x94\x8c\x05terms\x94h\x13)\x81\x94}\x94h\x16)sbK\x01\x86\x94\x85\x94sb\x8c\x08children\x94h\x02)\x81\x94}\x94(h\x05h\x08\x8c\x031/2\x94\x85\x94R\x94h\x0ch\x08\x8c"
            b"\x031/8\x94\x85\x94R\x94h\x10h\x13)\x81\x94}\x94h\x16)sbh\x1b)\x8c\x04tail\x94Nubh\x02)\x81\x94}\x94(h\x05h\x08\x8c\x031/4\x94\x85\x94R\x94h\x0ch\x08\x8c\x041/16\x94\x85\x94R"
            b"\x94h\x10h$h\x1b)h&Nub\x86\x94h&h\x00\x8c\x08TailSpec\x94\x93\x94)\x81\x94}\x94(\x8c\nnext_index\x94K\x02\x8c\tgenerator\x94\x8c\tsucce"
            b"ssor\x94ubub."
        ),
    }


@pytest.mark.parametrize("protocol", sorted(PICKLED_TREE))
def test_tree_pickle_bytes_are_stable(protocol):
    t = realize_cluster(0, 1, ONE, RealizationConfig(children_per_node=2))
    loaded = pickle.loads(PICKLED_TREE[protocol])
    assert loaded == t and tree_to_json(loaded) == tree_to_json(t)
    realize_reference.validate_tree(loaded, RealizationConfig(children_per_node=2))
    assert pickle.dumps(t, protocol) == PICKLED_TREE[protocol]


def test_tree_has_slots_and_dataclass_surface():
    t = realize_cluster(0, 1, P("w+1"))
    # fields and memos are slots: no node has an instance dict, and trees
    # can still be weakly referenced
    assert not any(hasattr(node, "__dict__") for node in t.iter_nodes())
    assert weakref.ref(t)() is t
    defaults = [(f.name, f.default) for f in fields(ClusterTree)]
    assert defaults == [
        ("center", MISSING),
        ("radius", MISSING),
        ("rank", MISSING),
        ("children", ()),
        ("tail", None),
    ]
    leaf = ClusterTree(F(1), F(1, 2), ZERO)
    assert leaf.is_leaf and leaf.children == () and leaf.tail is None
    assert repr(leaf) == "ClusterTree(center=Fraction(1, 1), radius=Fraction(1, 2), rank=Ordinal(\"0\"), children=(), tail=None)"
    assert replace(t) == t and hash(replace(t)) == hash(t)
    with pytest.raises(AttributeError):
        t.rank = ZERO


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


@pytest.mark.parametrize(
    "rank", ["0", "1", "3", "w", "w+2", "w*2", "w^(2)", "w^(w)", "w^(w)+1", "w^(w+1)", "w^(w^(w))"]
)
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


@pytest.mark.parametrize("rank, m, depth", [("w^(w^(w))", 12, 6), ("w^(w)", 12, 6), ("w^(w^(w))", 3, 14)])
def test_node_budget_refuses_before_the_last_level(monkeypatch, rank, m, depth):
    # every rank on a level is distinct, so a count that computes the
    # child ranks of the level past the cap computes hundreds of thousands
    calls = 0

    def counted(lam, n):
        nonlocal calls
        calls += 1
        return fundamental_seq(lam, n)

    monkeypatch.setattr(realize_module, "fundamental_seq", counted)
    with pytest.raises(NodeBudgetError):
        realize_module._check_node_budget(P(rank), 1, RealizationConfig(children_per_node=m, max_depth=depth))
    assert calls < 100_000


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
    # validate_tree never compares a child's rank with its parent's, so
    # only the tests' exact reading objects
    t = realize_cluster(0, 1, Ordinal.from_int(3))
    kids = list(t.children)
    kids[0] = replace(kids[0], rank=ONE)
    strayed = replace(t, children=tuple(kids))
    validate_tree(strayed)
    with pytest.raises(TreeInvariantError, match=r"^child rank off the recursion at /0$"):
        realize_reference.validate_tree(strayed, DEFAULT_CONFIG)
