"""Command line behaviour: outputs, file plumbing, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cbkit.cli import _build_parser, _config_from_args, main
from cbkit.oracle import MAX_SCALE_BITS
from cbkit.ordinal import parse_ordinal
from cbkit.realize import (
    SCHEDULE_BASES,
    RealizationConfig,
    dump_forest,
    load_forest,
    realize_multi,
    tree_to_json,
    tree_to_obj,
)
from helpers import chain_obj


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------------ ord


def test_ord_add(capsys):
    code, out, _ = run(capsys, "ord", "add", "1", "w")
    assert (code, out) == (0, "w\n")


def test_ord_fs(capsys):
    code, out, _ = run(capsys, "ord", "fs", "w^(2)", "2")
    assert (code, out) == (0, "w*3\n")


def test_ord_sub_undefined(capsys):
    code, out, err = run(capsys, "ord", "sub", "w*2", "w")
    assert code == 3
    assert "Undefined" in err


def test_ord_sub_defined(capsys):
    code, out, _ = run(capsys, "ord", "sub", "w", "w*2")
    assert (code, out) == (0, "w\n")


def test_ord_mul_and_cmp(capsys):
    assert run(capsys, "ord", "mul", "w*2", "w")[1] == "w^(2)\n"
    assert run(capsys, "ord", "cmp", "5", "w")[1] == "Less\n"
    assert run(capsys, "ord", "cmp", "w", "w")[1] == "Equal\n"
    assert run(capsys, "ord", "cmp", "w+1", "w")[1] == "Greater\n"


def test_ord_parse_error(capsys):
    code, _, err = run(capsys, "ord", "add", "w^", "1")
    assert code == 2
    assert "position" in err


DEEP_RANK = "w^(" * 1000 + "1" + ")" * 1000


def test_ord_deep_nesting_exits_2(capsys):
    code, out, err = run(capsys, "ord", "cmp", DEEP_RANK, "w")
    assert (code, out) == (2, "")
    assert "nested deeper" in err


def test_ord_fs_not_limit(capsys):
    code, _, err = run(capsys, "ord", "fs", "w+1", "3")
    assert code == 3
    assert "NotLimit" in err


def test_ord_fs_bad_index(capsys):
    assert run(capsys, "ord", "fs", "w", "x")[0] == 2


# ---------------------------------------------------------------------- space


def test_space_derive_compact(capsys):
    code, out, _ = run(capsys, "space", "derive", "--rank", "w", "--count", "1")
    assert (code, out) == (0, '{"rank":"w","count":1}\n')


def test_space_steps(capsys):
    code, out, _ = run(capsys, "space", "steps", "--rank", "3", "--count", "2", "--beta", "3")
    assert (code, out) == (0, '{"rank":"0","count":2}\n')
    code, out, _ = run(capsys, "space", "steps", "--rank", "w*2", "--count", "1", "--beta", "w")
    assert (code, out) == (0, '{"rank":"w","count":1}\n')


def test_space_union_and_homeo(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"rank": "w", "count": 1}\n')
    b.write_text('{"rank": "2", "count": 3}\n')
    code, out, _ = run(capsys, "space", "union", str(a), str(b))
    assert (code, out) == (0, '{"rank":"w","count":1}\n')
    code, out, _ = run(capsys, "space", "homeo", str(a), str(b))
    assert (code, out) == (0, "false\n")
    code, out, _ = run(capsys, "space", "homeo", str(a), str(a))
    assert (code, out) == (0, "true\n")


def test_space_strict_env(capsys, monkeypatch):
    code, out, _ = run(capsys, "space", "derive", "--rank", "w+w", "--count", "1")
    assert (code, out) == (0, '{"rank":"w*2","count":1}\n')
    monkeypatch.setenv("CBKIT_STRICT", "1")
    code, _, err = run(capsys, "space", "derive", "--rank", "w+w", "--count", "1")
    assert code == 2


def test_space_bad_char_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "space", "homeo", str(bad), str(bad))[0] == 2


def test_space_union_deep_json_exits_2(capsys, tmp_path):
    deep = tmp_path / "a.json"
    deep.write_text("[" * 100_000)
    good = tmp_path / "b.json"
    good.write_text('{"rank": "w", "count": 1}\n')
    code, out, err = run(capsys, "space", "union", str(deep), str(good))
    assert (code, out, err) == (2, "", "cbkit: error: JSON nested too deeply\n")


# -------------------------------------------------------------------- realize


def test_realize_stdout_deterministic(capsys):
    code, out1, _ = run(capsys, "realize", "w", "-p", "1")
    code2, out2, _ = run(capsys, "realize", "w", "-p", "1")
    assert code == code2 == 0
    obj = json.loads(out1)
    assert obj["rank"] == "w"
    assert out1 == out2


def test_realize_bad_rank(capsys):
    assert run(capsys, "realize", "w^")[0] == 2


def test_realize_writes_tree_and_points(capsys, tmp_path):
    out = tmp_path / "tree.json"
    code, _, _ = run(capsys, "realize", "2", "-p", "2", "--out", str(out))
    assert code == 0
    forest = load_forest(out)
    assert len(forest) == 2
    csv = Path(str(out) + ".points.csv").read_text().splitlines()
    assert csv[0] == "point,den_path"
    assert len(csv) > 20


@pytest.mark.parametrize("p", [1, 3])
def test_dump_forest_matches_realize_out(capsys, tmp_path, p):
    out = tmp_path / "cli.json"
    assert run(capsys, "realize", "w+1", "-p", str(p), "--out", str(out))[0] == 0
    lib = tmp_path / "lib.json"
    dump_forest(realize_multi(parse_ordinal("w+1"), p), lib)
    assert lib.read_bytes() == out.read_bytes()


@settings(max_examples=30, deadline=None)
@given(
    rank=st.sampled_from(("0", "1", "3", "w", "w+2", "w*2", "w^(2)", "w^(w)")),
    p=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=2, max_value=6),
    depth=st.integers(min_value=0, max_value=3),
    schedule=st.sampled_from(tuple(SCHEDULE_BASES)),
    side=st.sampled_from(("right", "left")),
)
def test_tree_json_matches_json_dumps(rank, p, m, depth, schedule, side):
    # cbkit writes the tree schema itself; json.dumps is the reference
    forest = realize_multi(parse_ordinal(rank), p, RealizationConfig(m, schedule, side, depth))
    objs = [tree_to_obj(t) for t in forest]
    expected = json.dumps(objs[0] if p == 1 else objs, indent=2) + "\n"
    assert tree_to_json(forest[0]) == json.dumps(objs[0], indent=2) + "\n"
    argv = ["realize", rank, "-p", str(p), "-m", str(m), "--depth", str(depth)]
    argv += ["--schedule", schedule, "--side", side]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    assert stdout.getvalue() == expected
    with tempfile.TemporaryDirectory() as tmp:
        lib, cli = Path(tmp, "lib.json"), Path(tmp, "cli.json")
        dump_forest(forest, lib)
        assert main([*argv, "--out", str(cli)]) == 0
        assert lib.read_bytes() == cli.read_bytes() == expected.encode("ascii")


@pytest.mark.parametrize("flag", ["--mat-depth", "--width"])
def test_realize_bad_budget_writes_nothing(capsys, tmp_path, flag):
    out = tmp_path / "a.json"
    code, stdout, err = run(capsys, "realize", "1", "--out", str(out), flag, "0")
    assert (code, stdout, err) == (2, "", "cbkit: error: budgets must be >= 1\n")
    assert list(tmp_path.iterdir()) == []


def test_realize_path_collision(capsys, tmp_path):
    p = str(tmp_path / "x.json")
    assert run(capsys, "realize", "1", "--out", p, "--points", p)[0] == 2


def test_realize_config_flags(capsys, tmp_path):
    out = tmp_path / "t.json"
    code, _, _ = run(capsys, "realize", "1", "--out", str(out), "-m", "3", "--depth", "2")
    assert code == 0
    tree = load_forest(out)[0]
    assert len(tree.children) == 3


def test_realize_config_file(capsys, tmp_path):
    cfgfile = tmp_path / "r.cfg"
    cfgfile.write_text("children_per_node = 2\nmax_depth = 2\n")
    out = tmp_path / "t.json"
    code, _, _ = run(capsys, "realize", "1", "--out", str(out), "--config", str(cfgfile))
    assert code == 0
    assert len(load_forest(out)[0].children) == 2


# --------------------------------------------------------------------- verify


def test_verify_round_trip(capsys, tmp_path):
    out = tmp_path / "w2.json"
    run(capsys, "realize", "w*2", "-p", "2", "--out", str(out))
    code, report_text, _ = run(capsys, "verify", str(out))
    report = json.loads(report_text)
    assert code == 0
    assert report["ok"] is True
    assert report["geometry"]["ok"] is True
    assert report["char_expected"] == {"rank": "w*2", "count": 2}
    assert report["char_pruned"] is None  # infinite rank, audited instead
    assert report["failures"] == []


def test_verify_finite_prunes(capsys, tmp_path):
    out = tmp_path / "t3.json"
    run(capsys, "realize", "3", "--out", str(out))
    code, report_text, _ = run(capsys, "verify", str(out))
    report = json.loads(report_text)
    assert code == 0
    assert report["char_pruned"] == {"rank": "3", "count": 1}


def test_verify_corrupted_tree(capsys, tmp_path):
    out = tmp_path / "t.json"
    run(capsys, "realize", "2", "--out", str(out))
    obj = json.loads(out.read_text())
    obj["children"][0]["children"][0]["center"] = "3/16"  # onto the root sphere
    out.write_text(json.dumps(obj))
    code, report_text, _ = run(capsys, "verify", str(out))
    report = json.loads(report_text)
    assert code == 1
    assert report["ok"] is False
    assert report["geometry"]["ok"] is False
    assert report["geometry"]["counterexample"]["point"] == "3/16"
    assert report["failures"]


def test_verify_wrong_tail_generator(capsys, tmp_path):
    out = tmp_path / "t.json"
    run(capsys, "realize", "4", "--out", str(out))
    obj = json.loads(out.read_text())
    obj["children"][1]["tail"]["generator"] = "limit"  # rank 3 needs a successor tail
    out.write_text(json.dumps(obj))
    code, report_text, _ = run(capsys, "verify", str(out))
    report = json.loads(report_text)
    assert code == 1
    assert report["ok"] is False
    assert any(f.startswith("structure[0]: tail generator disagrees") for f in report["failures"])
    assert any(f.startswith("pruning: tail generator disagrees") for f in report["failures"])


def test_verify_stage_cap_exhausted_exits_3(capsys, tmp_path):
    out = tmp_path / "c.json"
    assert run(capsys, "realize", "3", "--out", str(out))[0] == 0
    code, report_text, err = run(capsys, "verify", str(out), "--stage-cap", "2")
    assert (code, report_text) == (3, "")
    assert err == "cbkit: StageBudgetExceeded: no finite stage within 2 passes\n"
    assert run(capsys, "verify", str(out), "--stage-cap", "3")[0] == 0


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_verify_stage_cap_below_one_exits_2(capsys, tmp_path, cap):
    out = tmp_path / "c.json"
    assert run(capsys, "realize", "0", "--out", str(out))[0] == 0
    code, report_text, err = run(capsys, "verify", str(out), "--stage-cap", cap)
    assert (code, report_text, err) == (2, "", "cbkit: error: --stage-cap must be >= 1\n")


def test_verify_scale_budget_exits_3(capsys, tmp_path):
    # two leaves whose coprime denominators together pass the scale budget
    leaves = [
        {"center": f"1/{den}", "radius": "1/8", "rank": "0", "children": [], "tail": None}
        for den in (2 ** (MAX_SCALE_BITS - 1), 3)
    ]
    tree = {
        "center": "0/1",
        "radius": "1/2",
        "rank": "1",
        "children": leaves,
        "tail": {"next_index": 2, "generator": "successor"},
    }
    out = tmp_path / "t.json"
    out.write_text(json.dumps(tree))
    code, report_text, err = run(capsys, "verify", str(out))
    assert (code, report_text) == (3, "")
    assert err == f"cbkit: ScaleBudgetExceeded: common denominator of the centers exceeds {MAX_SCALE_BITS} bits\n"


def test_verify_large_finite_part(capsys, tmp_path):
    out = tmp_path / "t.json"
    assert run(capsys, "realize", "w+500", "--depth", "2", "--out", str(out))[0] == 0
    code, report_text, _ = run(capsys, "verify", str(out))
    report = json.loads(report_text)
    assert code == 0
    assert report["char_expected"] == {"rank": "w+500", "count": 1}
    assert report["failures"] == []


def test_verify_deep_nesting_rank_exits_2(capsys, tmp_path):
    out = tmp_path / "t.json"
    leaf = {"center": "0/1", "radius": "1/2", "rank": DEEP_RANK, "children": [], "tail": None}
    out.write_text(json.dumps(leaf))
    code, report_text, err = run(capsys, "verify", str(out))
    assert (code, report_text) == (2, "")
    assert "nested deeper" in err


def test_verify_deep_json_exits_2(capsys, tmp_path):
    out = tmp_path / "t.json"
    out.write_text("[" * 100_000)
    code, report_text, err = run(capsys, "verify", str(out))
    assert (code, report_text, err) == (2, "", "cbkit: error: JSON nested too deeply\n")


def test_verify_tree_past_depth_limit_exits_2(capsys, tmp_path):
    out = tmp_path / "t.json"
    out.write_text(json.dumps(chain_obj(101)))
    code, report_text, err = run(capsys, "verify", str(out))
    assert (code, report_text) == (2, "")
    assert err == "cbkit: error: cluster tree deeper than 100 levels\n"


def test_verify_missing_file(capsys, tmp_path):
    assert run(capsys, "verify", str(tmp_path / "absent.json"))[0] == 2


def test_verify_directory(capsys, tmp_path):
    for name, rank in (("a.json", "1"), ("b.json", "2")):
        run(capsys, "realize", rank, "--out", str(tmp_path / name))
    code, report_text, _ = run(capsys, "verify", str(tmp_path))
    reports = json.loads(report_text)
    assert code == 0
    assert [Path(r["tree"]).name for r in reports] == ["a.json", "b.json"]
    assert all(r["ok"] for r in reports)


def test_verify_report_file(capsys, tmp_path):
    out = tmp_path / "t.json"
    run(capsys, "realize", "1", "--out", str(out))
    report_path = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "verify", str(out), "--report", str(report_path))
    assert code == 0 and stdout == ""
    assert json.loads(report_path.read_text())["ok"] is True


def test_verify_strict_env(capsys, tmp_path, monkeypatch):
    out = tmp_path / "t.json"
    run(capsys, "realize", "1", "--out", str(out))
    out.write_text(out.read_text().replace('"rank": "1"', '"rank": "0+1"', 1))
    assert run(capsys, "verify", str(out))[0] == 0
    monkeypatch.setenv("CBKIT_STRICT", "1")
    assert run(capsys, "verify", str(out))[0] == 2


# ------------------------------------------------------------ census, classes


def test_census_output(capsys):
    code, out, _ = run(capsys, "census", "2", "1")
    assert code == 0
    assert json.loads(out) == [
        {"rank": "0", "count": 0},
        {"rank": "0", "count": 1},
        {"rank": "1", "count": 1},
    ]


def test_census_needs_budget_for_limits(capsys):
    code, _, err = run(capsys, "census", "w", "2")
    assert code == 3
    assert "BudgetExceeded" in err
    code, out, _ = run(capsys, "census", "w", "2", "--max-ranks", "3")
    assert code == 0
    assert len(json.loads(out)) == 7


def test_census_size_cap(capsys):
    assert run(capsys, "census", "1000", "1000", "--size-cap", "10")[0] == 3


def test_classcount(capsys):
    assert run(capsys, "classcount", "finite", "4")[1] == '{"kind":"finite","n":5}\n'
    assert run(capsys, "classcount", "countable")[1] == '{"kind":"aleph0"}\n'
    assert run(capsys, "classcount", "uncountable")[1] == '{"kind":"aleph1"}\n'
    assert run(capsys, "classcount", "finite")[0] == 2


# -------------------------------------------------------------------- wiring


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cbkit", "ord", "add", "1", "w"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "w\n"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ------------------------------------------------------------ outputs, budgets


@pytest.mark.parametrize(
    "out, points",
    [("x.json", "nodir/p.csv"), ("nodir/x.json", "p.csv"), (None, "nodir/p.csv")],
    ids=["bad-points", "bad-out", "stdout-bad-points"],
)
def test_realize_failed_open_writes_nothing(capsys, tmp_path, out, points):
    argv = ["realize", "1", "--points", str(tmp_path / points)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith("cbkit: error: [Errno 2] No such file or directory")
    assert list(tmp_path.iterdir()) == []


def test_realize_node_budget_exits_3(capsys, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("realize_multi called past the node budget")

    monkeypatch.setattr("cbkit.cli.realize_multi", never)
    out = tmp_path / "t.json"
    code, stdout, err = run(capsys, "realize", "20", "-m", "3", "--depth", "20", "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err == "cbkit: NodeBudgetExceeded: realization would build more than 1000000 nodes\n"
    assert list(tmp_path.iterdir()) == []


def test_ord_print_budget_exits_3(capsys):
    digits = sys.get_int_max_str_digits()
    half = "9" * (digits // 2 + 50)  # parses; its square has more than the limit's digits
    code, out, err = run(capsys, "ord", "mul", half, half)
    assert (code, out) == (3, "")
    assert err == f"cbkit: PrintBudgetExceeded: an integer of the result has more than {digits} digits\n"
    code, out, err = run(capsys, "ord", "mul", "9" * (digits + 1), "1")
    assert (code, out) == (2, "")
    assert err.startswith("cbkit: error: number too long")


def test_space_union_print_budget_exits_3(capsys, tmp_path):
    a = tmp_path / "a.json"
    a.write_text('{"rank": "w", "count": %s}' % ("9" * sys.get_int_max_str_digits()))
    code, out, err = run(capsys, "space", "union", str(a), str(a))
    assert (code, out) == (3, "")
    assert err.startswith("cbkit: PrintBudgetExceeded: ")


def test_config_flags_set_the_config_fields():
    args = _build_parser().parse_args(
        ["realize", "1", "-m", "3", "--depth", "2", "--schedule", "thirds", "--side", "left"]
    )
    assert _config_from_args(args) == RealizationConfig(3, "thirds", "left", 2)
    args = _build_parser().parse_args(["verify", "t.json", "--depth", "1"])
    assert _config_from_args(args) == RealizationConfig(max_depth=1)


def test_verify_thirds_tree_without_schedule_reports_restriction(capsys, tmp_path):
    out = tmp_path / "t.json"
    assert run(capsys, "realize", "2", "--schedule", "thirds", "--out", str(out))[0] == 0
    code, report_text, _ = run(capsys, "verify", str(out))
    assert code == 1
    assert json.loads(report_text)["failures"] == [
        "restriction[0]: annulus 3, stage 0",
        "restriction[0]: annulus 3, stage 1",
    ]
    assert run(capsys, "verify", str(out), "--schedule", "thirds")[0] == 0


def test_verify_dir_reports_each_budget(capsys, tmp_path):
    trees = tmp_path / "trees"
    trees.mkdir()
    for rank in ("1", "3"):
        assert run(capsys, "realize", rank, "--out", str(trees / f"r{rank}.json"))[0] == 0
    code, report_text, err = run(capsys, "verify", str(trees), "--stage-cap", "2")
    assert code == 3
    assert err == "cbkit: StageBudgetExceeded: no finite stage within 2 passes\n"
    first, second = json.loads(report_text)
    assert first["ok"] is True and first["char_pruned"] == {"rank": "1", "count": 1}
    assert second == {
        "tree": str(trees / "r3.json"),
        "geometry": None,
        "char_expected": None,
        "char_pruned": None,
        "ok": False,
        "failures": ["budget: StageBudgetExceeded: no finite stage within 2 passes"],
    }


def test_verify_dir_exits_with_the_worst_code(capsys, tmp_path):
    trees = tmp_path / "trees"
    trees.mkdir()
    assert run(capsys, "realize", "1", "--out", str(trees / "a.json"))[0] == 0
    assert run(capsys, "verify", str(trees))[0] == 0
    obj = json.loads((trees / "a.json").read_text())
    obj["rank"] = "2"
    (trees / "b.json").write_text(json.dumps(obj))
    assert run(capsys, "verify", str(trees))[0] == 1
    assert run(capsys, "realize", "3", "--out", str(trees / "c.json"))[0] == 0
    assert run(capsys, "verify", str(trees), "--stage-cap", "2")[0] == 3
