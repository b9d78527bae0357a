"""Command line behaviour: outputs, file plumbing, exit codes."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cbkit import cli
from cbkit.cli import _build_parser, _config_from_args, main
from cbkit.oracle import MAX_SCALE_BITS, geometry_check
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
from cbkit.space import CensusBudgetError
from helpers import LAST_HOLDS_CENTER, chain_obj


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


@pytest.mark.parametrize("index", ["\u0663", "1_0", "+2", "-1", "", "4 4", "\u00b2"])
def test_ord_fs_index_is_the_grammars_natural(capsys, index):
    # the grammar admits ASCII digits only, where int also reads other
    # decimal digits, underscores and a sign
    code, out, err = run(capsys, "ord", "fs", "w", index)
    assert (code, out) == (2, "")
    assert f"fs index must be a natural number: {index!r}" in err


def test_ord_fs_index_allows_whitespace_around(capsys):
    assert run(capsys, "ord", "fs", "w", " 4 ")[:2] == (0, "5\n")
    assert run(capsys, "ord", "fs", "w", "\t007\n")[:2] == (0, "8\n")


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


@pytest.mark.parametrize("existing", [None, "an older tree\n"], ids=["new", "existing"])
@pytest.mark.parametrize("alias", ["./a.json", "link.json"], ids=["dot", "symlink"])
def test_realize_aliased_outputs_write_nothing(capsys, monkeypatch, tmp_path, alias, existing):
    # both names open one file, where the tree would overwrite the points;
    # the link dangles until a.json exists
    monkeypatch.chdir(tmp_path)
    if alias == "link.json":
        os.symlink("a.json", alias)
    if existing is not None:
        Path("a.json").write_text(existing)

    def state() -> dict:
        return {p.name: os.readlink(p) if p.is_symlink() else p.read_bytes() for p in tmp_path.iterdir()}

    before = state()
    code, stdout, err = run(capsys, "realize", "2", "--out", "a.json", "--points", alias)
    assert (code, stdout, err) == (2, "", "cbkit: error: tree and point outputs must be distinct paths\n")
    assert state() == before


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


def test_verify_forest_reports_first_counterexample(capsys, tmp_path):
    out = tmp_path / "t.json"
    run(capsys, "realize", "2", "-p", "2", "--out", str(out))
    objs = json.loads(out.read_text())
    objs[0]["children"][0]["children"][0]["center"] = "3/16"  # onto each root sphere
    objs[1]["children"][0]["children"][0]["center"] = "19/16"
    out.write_text(json.dumps(objs))
    code, report_text, _ = run(capsys, "verify", str(out))
    geometry = json.loads(report_text)["geometry"]
    reports = [geometry_check(t) for t in load_forest(out)]
    assert code == 1
    assert all(not r.ok for r in reports)
    assert geometry["annuli"] == sum(r.annuli for r in reports)
    # tree 0's counterexample, its path rooted at /0
    assert reports[0].counterexample.path == "/"
    assert geometry["counterexample"] == {**reports[0].counterexample.to_obj(), "path": "/0"}
    assert geometry["counterexample"]["point"] == "3/16"


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
    assert any(f.startswith("structure: tail generator disagrees") for f in report["failures"])
    assert any(f.startswith("pruning: tail generator disagrees") for f in report["failures"])


def test_verify_forest_of_one_tree_twice(capsys, tmp_path):
    # each tree is sound and the audit reads (2, 2), but the file denotes
    # one cluster, (2, 1)
    out = tmp_path / "t.json"
    run(capsys, "realize", "2", "--out", str(out))
    tree = json.loads(out.read_text())
    out.write_text(json.dumps([tree, tree]))
    code, report_text, _ = run(capsys, "verify", str(out))
    report = json.loads(report_text)
    assert code == 1
    assert report["failures"] == ["structure: cluster ball overlaps /0 at /1"]


def test_verify_forest_of_touching_clusters(capsys, tmp_path):
    # realize_multi puts centers 1 apart with radius 1/2
    out = tmp_path / "t.json"
    run(capsys, "realize", "w+1", "-p", "4", "--out", str(out))
    code, report_text, _ = run(capsys, "verify", str(out))
    assert code == 0 and json.loads(report_text)["ok"] is True


@pytest.mark.parametrize(
    "centers, failures",
    [
        (["0", "1"], []),
        (["0", "0"], ["structure: cluster ball overlaps /0 at /1"]),
        (["0", "9/10"], ["structure: cluster ball overlaps /0 at /1"]),
        (["5", "0", "1/2"], ["structure: cluster ball overlaps /1 at /2"]),
    ],
    ids=["touching", "one-center", "overlapping", "unsorted"],
)
def test_verify_forest_root_balls_meet_only_on_their_edges(capsys, tmp_path, centers, failures):
    out = tmp_path / "t.json"
    out.write_text(json.dumps([
        {"center": c, "radius": "1/2", "rank": "0", "children": [], "tail": None} for c in centers
    ]))
    code, report_text, _ = run(capsys, "verify", str(out))
    assert (code, json.loads(report_text)["failures"]) == (1 if failures else 0, failures)


def test_verify_high_finite_rank(capsys, tmp_path):
    # pruning reads each root's life in one walk, so no rank is too high
    out = tmp_path / "t.json"
    assert run(capsys, "realize", "40", "--depth", "2", "-m", "2", "--out", str(out))[0] == 0
    code, report_text, err = run(capsys, "verify", str(out))
    report = json.loads(report_text)
    assert (code, err) == (0, "")
    assert report["char_pruned"] == report["char_expected"] == {"rank": "40", "count": 1}


SCALE_BUDGET = f"ScaleBudgetExceeded: common denominator of the centers exceeds {MAX_SCALE_BITS} bits"


def write_scale_budget_tree(path: Path) -> None:
    """A tree whose two leaves' coprime denominators together pass the scale budget."""
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
    path.write_text(json.dumps(tree))


def test_verify_scale_budget_exits_3(capsys, tmp_path):
    out = tmp_path / "t.json"
    write_scale_budget_tree(out)
    code, report_text, err = run(capsys, "verify", str(out))
    assert (code, report_text) == (3, "")
    assert err == f"cbkit: {SCALE_BUDGET}\n"


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


@pytest.mark.parametrize("index", [True, 1.0])
def test_verify_tail_index_not_natural_exits_2(capsys, tmp_path, index):
    # an earlier tail with next_index 1 is shared, but true and 1.0 equal
    # 1 and still get their own check
    def tree(next_index):
        leaf = {"center": "1/4", "radius": "1/16", "rank": "0", "children": [], "tail": None}
        return {
            "center": "0/1", "radius": "1/2", "rank": "1", "children": [leaf],
            "tail": {"next_index": next_index, "generator": "successor"},
        }

    out = tmp_path / "t.json"
    out.write_text(json.dumps([tree(1), tree(index)]))
    code, report_text, err = run(capsys, "verify", str(out))
    assert (code, report_text, err) == (2, "", "cbkit: error: next_index must be an integer >= 0\n")


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


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_verify_dir_reports_a_fifo_without_opening_it(capsys, tmp_path):
    trees = tmp_path / "trees"
    trees.mkdir()
    assert run(capsys, "realize", "1", "--out", str(trees / "a.json"))[0] == 0
    os.mkfifo(trees / "b.json")
    # a read of the FIFO would block for ever: the timeout turns that into a failure
    proc = subprocess.run(
        [sys.executable, "-m", "cbkit", "verify", str(trees)], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (2, f"cbkit: {trees / 'b.json'}: error: not a regular file\n")
    first, second = json.loads(proc.stdout)
    assert first["ok"] is True
    assert second == {
        "tree": str(trees / "b.json"),
        "geometry": None,
        "char_expected": None,
        "char_pruned": None,
        "ok": False,
        "failures": ["input: not a regular file"],
    }
    # a single target is read whatever it is, here a pipe
    proc = subprocess.run(
        [sys.executable, "-m", "cbkit", "verify", "/dev/stdin"],
        input=(trees / "a.json").read_text(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and json.loads(proc.stdout)["ok"] is True


def test_verify_report_file(capsys, tmp_path):
    out = tmp_path / "t.json"
    run(capsys, "realize", "1", "--out", str(out))
    report_path = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "verify", str(out), "--report", str(report_path))
    assert code == 0 and stdout == ""
    assert json.loads(report_path.read_text())["ok"] is True


def test_verify_report_opens_as_realize_outputs_do(capsys, tmp_path):
    out = tmp_path / "t.json"
    run(capsys, "realize", "1", "--out", str(out))
    _, printed, _ = run(capsys, "verify", str(out))
    # a device takes the report without a truncate
    assert run(capsys, "verify", str(out), "--report", "/dev/null") == (0, "", "")
    # a missing directory ends the run after the checks, and creates nothing
    code, stdout, err = run(capsys, "verify", str(out), "--report", str(tmp_path / "nodir" / "r.json"))
    assert (code, stdout) == (2, "") and err.startswith("cbkit: error: [Errno 2] No such file or directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.json", "t.json.points.csv"]
    # a longer file is replaced whole, and the target is read before its report replaces it
    old = tmp_path / "old.json"
    old.write_text("x" * 100_000)
    assert run(capsys, "verify", str(out), "--report", str(old)) == (0, "", "")
    assert old.read_text() == printed
    assert run(capsys, "verify", str(out), "--report", str(out)) == (0, "", "")
    assert out.read_text() == printed


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
    for kind in ("countable", "uncountable"):
        for n in ("5", "-3", "0"):
            assert run(capsys, "classcount", kind, n) == (2, "", "cbkit: error: only finite ambients carry a size\n")


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


def _collector_state():
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


def _interrupt(args):
    raise KeyboardInterrupt


@pytest.mark.parametrize("enabled", [True, False], ids=["collecting", "paused"])
def test_main_restores_the_collector(capsys, monkeypatch, tmp_path, enabled):
    bad = tmp_path / "bad.json"
    assert run(capsys, "realize", "2", "--out", str(bad))[0] == 0
    obj = json.loads(bad.read_text())
    obj["children"][0]["children"][0]["center"] = "3/16"  # onto the root sphere
    bad.write_text(json.dumps(obj))
    cases = [
        (["ord", "add", "1", "w"], 0),
        (["verify", str(bad)], 1),
        (["verify", str(tmp_path / "absent.json")], 2),
        (["frobnicate"], SystemExit),
        (["ord", "add", "1"], SystemExit),
        (["ord", "sub", "w*2", "w"], 3),
        (["ord", "add", "1", "w"], KeyboardInterrupt),
    ]
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        before = _collector_state()
        for argv, outcome in cases:
            if outcome is KeyboardInterrupt:
                monkeypatch.setattr("cbkit.cli._cmd_ord", _interrupt)
            if isinstance(outcome, int):
                assert main(argv) == outcome
            else:
                with pytest.raises(outcome):
                    main(argv)
            assert _collector_state() == before, argv
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_verify_dir_garbage_does_not_grow_with_its_files(capsys, tmp_path):
    tree = tmp_path / "t.json"
    assert run(capsys, "realize", "w+1", "-p", "2", "--out", str(tree))[0] == 0
    found = []
    for files in (2, 12):
        trees = tmp_path / f"d{files}"
        trees.mkdir()
        for k in range(files):
            (trees / f"t{k:02}.json").write_bytes(tree.read_bytes())
        gc.collect()
        code = main(["verify", str(trees)])
        found.append(gc.collect())
        capsys.readouterr()
        assert code == 0
    # one argument parser's worth, not some per file or tree
    assert found[0] == found[1]


def test_process_entry_freezes_the_import_heap():
    script = (
        "import gc, sys; from cbkit.cli import run; sys.argv[1:] = ['ord', 'sub', 'w*2', 'w']; "
        "code = run(); print(gc.isenabled(), gc.get_freeze_count() > 0, code)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert (proc.stdout, proc.stderr) == ("True True 3\n", "cbkit: Undefined: w*2 > w\n")


def test_module_entry_matches_main(capsys, tmp_path):
    def invoke(entry, *argv):
        if entry == "main":
            code, out, err = run(capsys, *argv)
            return code, out.encode(), err.encode()
        proc = subprocess.run([sys.executable, "-m", "cbkit", *argv], capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    results = {}
    for entry in ("module", "main"):
        tree, points = tmp_path / f"{entry}.json", tmp_path / f"{entry}.csv"
        realized = invoke(entry, "realize", "w^(2)+1", "-p", "2", "--out", str(tree), "--points", str(points))
        # the report names the tree's path, so both verify the same file
        verified = invoke(entry, "verify", str(tmp_path / "module.json"))
        results[entry] = (realized, tree.read_bytes(), points.read_bytes(), verified)
    assert results["module"] == results["main"]
    assert results["main"][3][0] == 0


# ------------------------------------------------------------ outputs, budgets


@pytest.mark.parametrize(
    "out, points, existing",
    [
        ("x.json", "nodir/p.csv", None),
        ("nodir/x.json", "p.csv", None),
        (None, "nodir/p.csv", None),
        ("x.json", "nodir/p.csv", "an older tree\n"),
        ("/dev/null", "nodir/p.csv", None),
    ],
    ids=["bad-points", "bad-out", "stdout-bad-points", "existing-out-bad-points", "devnull-out-bad-points"],
)
def test_realize_failed_open_writes_nothing(capsys, tmp_path, out, points, existing):
    if existing is not None:
        (tmp_path / out).write_text(existing)
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    argv = ["realize", "1", "--points", str(tmp_path / points)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith("cbkit: error: [Errno 2] No such file or directory")
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_realize_replaces_existing_outputs(capsys, tmp_path):
    tree, points = tmp_path / "t.json", tmp_path / "p.csv"
    tree.write_text("x" * 100_000)
    points.write_text("y" * 100_000)
    assert run(capsys, "realize", "1", "--out", str(tree), "--points", str(points))[0] == 0
    code, stdout, _ = run(capsys, "realize", "1")
    assert code == 0 and tree.read_text() == stdout
    assert points.read_text().startswith("point,den_path\n") and "y" not in points.read_text()
    # a device refuses a truncate, yet works as an output
    assert run(capsys, "realize", "1", "--out", "/dev/null", "--points", str(points))[0] == 0


def test_realize_points_default_only_beside_a_regular_out(capsys, monkeypatch, tmp_path):
    # _outputs records the paths it is given and opens none of them
    given = []

    @contextlib.contextmanager
    def record(*paths):
        given.append(paths)
        yield [None for _ in paths]

    monkeypatch.setattr("cbkit.cli._outputs", record)
    new, old = str(tmp_path / "new.json"), tmp_path / "old.json"
    old.write_text("an older tree\n")
    for out in ("/dev/null", new, str(old)):
        assert run(capsys, "realize", "1", "--out", out)[0] == 0
    assert given == [
        ("/dev/null", None),
        (new, new + ".points.csv"),
        (str(old), str(old) + ".points.csv"),
    ]


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


def test_verify_thirds_tree_passes_under_any_schedule_flag(capsys, tmp_path):
    # the sphere past the last child is read off the tree, so the
    # schedule flag is checked and then ignored
    out = tmp_path / "t.json"
    assert run(capsys, "realize", "2", "--schedule", "thirds", "--out", str(out))[0] == 0
    results = [
        run(capsys, "verify", str(out), *flags)
        for flags in ([], ["--schedule", "binary"], ["--schedule", "thirds"])
    ]
    assert [code for code, _, _ in results] == [0, 0, 0]
    assert results[0] == results[1] == results[2]
    assert json.loads(results[0][1])["failures"] == []


def test_verify_fails_a_last_child_whose_ball_holds_the_center(capsys, tmp_path):
    # the child's ball edge nearest the center falls past it, at -1/4
    out = tmp_path / "t.json"
    out.write_text(json.dumps(LAST_HOLDS_CENTER))
    code, report_text, err = run(capsys, "verify", str(out))
    report = json.loads(report_text)
    assert (code, err) == (1, "")
    assert report["geometry"]["ok"] is True
    assert report["char_expected"] == report["char_pruned"] == {"rank": "1", "count": 1}
    assert report["failures"] == [
        "restriction: annulus 0, stage 0 at /",
        "restriction: annulus 0, stage 1 at /",
    ]


def test_verify_dir_reports_each_budget(capsys, tmp_path):
    trees = tmp_path / "trees"
    trees.mkdir()
    assert run(capsys, "realize", "1", "--out", str(trees / "r1.json"))[0] == 0
    write_scale_budget_tree(trees / "s.json")
    code, report_text, err = run(capsys, "verify", str(trees))
    assert code == 3
    assert err == f"cbkit: {trees / 's.json'}: {SCALE_BUDGET}\n"
    first, second = json.loads(report_text)
    assert first["ok"] is True and first["char_pruned"] == {"rank": "1", "count": 1}
    assert second == {
        "tree": str(trees / "s.json"),
        "geometry": None,
        "char_expected": None,
        "char_pruned": None,
        "ok": False,
        "failures": [f"budget: {SCALE_BUDGET}"],
    }


def test_verify_dir_fails_only_the_file_of_any_domain_error(capsys, tmp_path, monkeypatch):
    # only the scale budget can run out inside verify; the rule is main's
    trees = tmp_path / "trees"
    trees.mkdir()
    for name in ("a.json", "b.json"):
        assert run(capsys, "realize", "1", "--out", str(trees / name))[0] == 0
    verify_file = cli._verify_file

    def budget_on_b(path, strict):
        if path.name == "b.json":
            raise CensusBudgetError("census of 9 classes exceeds cap 1")
        return verify_file(path, strict)

    monkeypatch.setattr(cli, "_verify_file", budget_on_b)
    code, report_text, err = run(capsys, "verify", str(trees))
    line = "BudgetExceeded: census of 9 classes exceeds cap 1"
    assert (code, err) == (3, f"cbkit: {trees / 'b.json'}: {line}\n")
    first, second = json.loads(report_text)
    assert first["ok"] is True and second["failures"] == [f"budget: {line}"]


def test_verify_dir_exits_with_the_worst_code(capsys, tmp_path):
    trees = tmp_path / "trees"
    trees.mkdir()
    assert run(capsys, "realize", "1", "--out", str(trees / "a.json"))[0] == 0
    assert run(capsys, "verify", str(trees))[0] == 0
    obj = json.loads((trees / "a.json").read_text())
    obj["rank"] = "2"
    (trees / "b.json").write_text(json.dumps(obj))
    assert run(capsys, "verify", str(trees))[0] == 1
    write_scale_budget_tree(trees / "c.json")
    assert run(capsys, "verify", str(trees))[0] == 3


def test_verify_dir_reports_bad_input(capsys, tmp_path):
    trees = tmp_path / "trees"
    trees.mkdir()
    assert run(capsys, "realize", "1", "--out", str(trees / "a.json"))[0] == 0
    (trees / "b.json").write_text("")
    (trees / "c.json").write_text('{"center": ')
    code, report_text, err = run(capsys, "verify", str(trees))
    assert code == 2
    empty = "Expecting value: line 1 column 1 (char 0)"
    malformed = "Expecting value: line 1 column 12 (char 11)"
    # each stderr line names its file
    assert err == f"cbkit: {trees / 'b.json'}: error: {empty}\ncbkit: {trees / 'c.json'}: error: {malformed}\n"
    first, second, third = json.loads(report_text)
    assert first["ok"] is True and first["tree"] == str(trees / "a.json")
    for report, name, message in ((second, "b.json", empty), (third, "c.json", malformed)):
        assert report == {
            "tree": str(trees / name),
            "geometry": None,
            "char_expected": None,
            "char_pruned": None,
            "ok": False,
            "failures": [f"input: {message}"],
        }
    # an exhausted budget outranks bad input, wherever the files sort
    write_scale_budget_tree(trees / "d.json")
    (trees / "e.json").write_text("")
    code, report_text, err = run(capsys, "verify", str(trees))
    assert code == 3
    kinds = [r["failures"][0].split(":")[0] for r in json.loads(report_text)[1:]]
    assert kinds == ["input", "input", "budget", "input"]
    assert err.splitlines() == [
        f"cbkit: {trees / 'b.json'}: error: {empty}",
        f"cbkit: {trees / 'c.json'}: error: {malformed}",
        f"cbkit: {trees / 'd.json'}: {SCALE_BUDGET}",
        f"cbkit: {trees / 'e.json'}: error: {empty}",
    ]
    # a single bad file still ends the run with no report
    assert run(capsys, "verify", str(trees / "b.json")) == (2, "", f"cbkit: error: {empty}\n")
