"""Byte identity of the command line's output.

Every run below goes through `cbkit.cli.main`, in order, inside one
empty directory and with relative paths, so a report names the same
files on every machine.  A run's digest is the SHA-256 of its exit
code, stdout, stderr and the files it writes (tree JSON, point CSV and
verify report).
`output_bytes.json` beside this module holds the exit code and digest
of every run.

argparse writes the usage, unknown-command and help texts itself, and
their wording differs between Python versions.  So a run that ends in
argparse's SystemExit is compared byte for byte only on the Python
version that recorded the manifest, and elsewhere by its exit code.

A change that alters output on purpose re-records the manifest:

    PYTHONPATH=src python tests/test_output_bytes.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path
from unittest import mock

from cbkit.cli import main
from cbkit.oracle import MAX_SCALE_BITS
from cbkit.ordinal import parse_ordinal
from cbkit.realize import realize_multi, tree_to_obj
from helpers import LAST_HOLDS_CENTER, chain_obj

MANIFEST = Path(__file__).with_name("output_bytes.json")

GRID_RANKS = ("0", "1", "2", "w", "w+1", "w*2")

# a 2,200-digit natural: its square has more digits than Python prints
LONG = "1" + "0" * 2199

# the verify_corpus configs of perfbench/jobs.py:
# (rank, p, children, depth, schedule, side)
CORPUS = (
    ("2", 2, 11, 2, "binary", "right"),
    ("3", 1, 7, 3, "thirds", "left"),
    ("3", 1, 12, 3, "binary", "right"),
    ("4", 1, 6, 4, "binary", "left"),
    ("4", 1, 4, 8, "thirds", "right"),
    ("5", 2, 3, 5, "thirds", "left"),
    ("5", 1, 4, 6, "binary", "right"),
    ("w", 1, 4, 8, "thirds", "right"),
    ("w", 1, 9, 3, "binary", "left"),
    ("w", 1, 10, 3, "thirds", "right"),
    ("w+1", 1, 3, 8, "binary", "left"),
    ("w+1", 1, 4, 6, "thirds", "left"),
    ("w*2", 1, 3, 8, "thirds", "right"),
    ("w*2", 1, 5, 4, "binary", "right"),
    ("w^(2)", 1, 4, 5, "thirds", "left"),
    ("w^(2)", 2, 12, 2, "binary", "left"),
)


def _realized(rank: str) -> dict:
    return tree_to_obj(realize_multi(parse_ordinal(rank), 1)[0])


def _bad_files() -> dict[str, str]:
    """The bad-file set: one defect or one exhausted budget per file."""
    sphere = _realized("2")
    sphere["children"][0]["children"][0]["center"] = "3/16"  # onto the root sphere
    generator = _realized("4")
    generator["children"][1]["tail"]["generator"] = "limit"  # rank 3 needs a successor tail
    leaf = {"center": "1/4", "radius": "1/16", "rank": "0", "children": [], "tail": None}
    next_index = {
        "center": "0/1", "radius": "1/2", "rank": "1", "children": [leaf],
        "tail": {"next_index": True, "generator": "successor"},
    }
    deep_rank = {"center": "0/1", "radius": "1/2", "rank": "w^(" * 200 + "1" + ")" * 200, "children": [], "tail": None}
    # two leaves whose coprime denominators together pass the scale budget
    scale = {
        "center": "0/1", "radius": "1/2", "rank": "1",
        "children": [
            {"center": f"1/{den}", "radius": "1/8", "rank": "0", "children": [], "tail": None}
            for den in (2 ** (MAX_SCALE_BITS - 1), 3)
        ],
        "tail": {"next_index": 2, "generator": "successor"},
    }
    return {
        "empty.json": "",
        "malformed.json": "{not json",
        "deep.json": "[" * 100_000,
        "sphere.json": json.dumps(sphere),
        "generator.json": json.dumps(generator),
        "next_index.json": json.dumps(next_index),
        "chain.json": json.dumps(chain_obj(101)),
        "rank.json": json.dumps(deep_rank),
        "scale.json": json.dumps(scale),
    }


def _forest_files() -> dict[str, str]:
    """Forests whose verdict hangs on a tree after the first or on two trees, and the empty forest."""
    second = [tree_to_obj(t) for t in realize_multi(parse_ordinal("2"), 2)]
    second[1]["children"][0]["children"][0]["center"] = "19/16"  # onto tree 1's root sphere
    audit = [tree_to_obj(t) for t in realize_multi(parse_ordinal("2"), 2)]
    audit[1]["children"][0]["rank"] = "3"  # rank 2's children have rank 1
    twice = _realized("w+1")
    both = [tree_to_obj(t) for t in realize_multi(parse_ordinal("2"), 2)]
    both[0]["children"][0]["children"][0]["center"] = "3/16"  # onto tree 0's root sphere
    both[1]["children"][0]["children"][0]["center"] = "19/16"  # onto tree 1's root sphere
    shifted = [tree_to_obj(t) for t in realize_multi(parse_ordinal("2"), 2)]
    shifted[1]["center"] = "1/2"  # its children escape, and its ball meets tree 0's
    # every center shifted by 3: tree 1 passes every oracle but the restriction identity
    leaf = LAST_HOLDS_CENTER["children"][0]
    holds_center = {**LAST_HOLDS_CENTER, "center": "3/1", "children": [{**leaf, "center": "13/4"}]}
    return {
        "sphere-second.json": json.dumps(second),
        "audit-second.json": json.dumps(audit),
        "twice.json": json.dumps([twice, twice]),
        "both-bad.json": json.dumps(both),
        "shifted.json": json.dumps(shifted),
        "restriction-second.json": json.dumps([_realized("1"), holds_center]),
        "empty.json": "[]",
    }


def _runs() -> list[tuple[list[str], tuple[str, ...]]]:
    """(argv, files the run writes), in the order the runs go."""
    runs: list[tuple[list[str], tuple[str, ...]]] = []
    for rank in GRID_RANKS:
        for p in ("1", "2"):
            tree = f"grid/{rank}-p{p}.json"
            runs.append((["realize", rank, "-p", p, "--out", tree], (tree, tree + ".points.csv")))
            runs.append((["verify", tree], ()))
    for schedule in ("binary", "thirds"):
        for side in ("right", "left"):
            tree = f"schedule/{schedule}-{side}.json"
            flags = ["-p", "2", "-m", "3", "--depth", "3", "--schedule", schedule, "--side", side]
            runs.append((["realize", "2", *flags, "--out", tree], (tree, tree + ".points.csv")))
            for again in ([], ["--schedule", "binary"], ["--schedule", "thirds"]):
                runs.append((["verify", tree, *again], ()))
    for name in _bad_files():
        runs.append((["verify", f"bad/{name}"], ()))
    for name in _forest_files():
        runs.append((["verify", f"forest/{name}"], ()))
    runs.append((["verify", "bad"], ()))
    runs.append((["verify", "last-holds-center.json"], ()))
    runs.append((["verify", "grid/1-p1.json", "--report", "reports/one.json"], ("reports/one.json",)))
    runs.append((["verify", "bad", "--report", "reports/dir.json"], ("reports/dir.json",)))
    runs.append((["verify", "grid/1-p1.json", "--report", "nodir/r.json"], ("nodir/r.json",)))
    for i, (rank, p, children, depth, schedule, side) in enumerate(CORPUS):
        tree = f"corpus/c{i:02d}.json"
        flags = ["-m", str(children), "--depth", str(depth), "--schedule", schedule, "--side", side]
        runs.append((["realize", rank, "-p", str(p), "--out", tree, *flags], (tree, tree + ".points.csv")))
        runs.append((["verify", tree, *flags], ()))
    runs += [
        ([], ()),
        (["frobnicate"], ()),
        (["--help"], ()),
        (["verify", "--help"], ()),
        (["verify", "grid/1-p1.json", "-m", "1"], ()),
        (["verify", "absent.json"], ()),
        (["realize", "w^(w^(w))", "-m", "12", "--depth", "6", "--out", "budget.json"], ("budget.json",)),
        (["ord", "sub", "w*2", "w"], ()),
        (["census", "2", "2"], ()),
        (["census", "w", "2", "--max-ranks", "3"], ()),
        (["classcount", "finite", "4"], ()),
        (["classcount", "uncountable"], ()),
        (["classcount", "countable", "5"], ()),
        (["ord", "mul", LONG, LONG], ()),
    ]
    return runs


def _digest(code: int, out: str, err: str, files: list[bytes | None]) -> str:
    h = hashlib.sha256()
    for part in (str(code).encode(), out.encode(), err.encode(), *files):
        if part is None:  # a file the run did not write
            h.update(b"-1:")
        else:
            h.update(b"%d:" % len(part))
            h.update(part)
    return h.hexdigest()


def _run(argv: list[str], writes: tuple[str, ...]) -> tuple[int, str, bool]:
    """One run's exit code and digest, and whether argparse ended it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, by_argparse = main(argv), False
        except SystemExit as exc:
            code, by_argparse = exc.code, True
    files = [Path(f).read_bytes() if os.path.exists(f) else None for f in writes]
    return code, _digest(code, out.getvalue(), err.getvalue(), files), by_argparse


def replay(root: Path) -> dict[str, tuple[int, str, bool]]:
    """Every run, by its command line: exit code, digest, ended by argparse."""
    for d in ("grid", "schedule", "bad", "forest", "reports", "corpus"):
        (root / d).mkdir()
    for name, text in _bad_files().items():
        (root / "bad" / name).write_text(text)
    for name, text in _forest_files().items():
        (root / "forest" / name).write_text(text)
    (root / "last-holds-center.json").write_text(json.dumps(LAST_HOLDS_CENTER))
    cwd = os.getcwd()
    # a fixed help width, and no strict parsing
    with mock.patch.dict(os.environ, COLUMNS="80"):
        os.environ.pop("CBKIT_STRICT", None)
        os.chdir(root)
        try:
            return {shlex.join(["cbkit", *argv]): _run(argv, writes) for argv, writes in _runs()}
        finally:
            os.chdir(cwd)


def _python() -> str:
    return "%d.%d" % sys.version_info[:2]


def test_output_bytes_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    same_python = manifest["python"] == _python()
    replayed = replay(tmp_path)
    assert list(replayed) == list(manifest["runs"])
    changed = [
        name
        for name, (code, digest, by_argparse) in replayed.items()
        if code != manifest["runs"][name]["exit"]
        or (digest != manifest["runs"][name]["sha256"] and (same_python or not by_argparse))
    ]
    assert changed == []


def record() -> None:
    with tempfile.TemporaryDirectory() as root:
        replayed = replay(Path(root))
    runs = {name: {"exit": code, "sha256": digest} for name, (code, digest, _) in replayed.items()}
    MANIFEST.write_text(json.dumps({"python": _python(), "runs": runs}, indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_output_bytes.py --record")
    record()
