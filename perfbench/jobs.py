"""Seeded inputs for the three benchmark workloads.

Everything cbkit receives is made here from the workload seed: argv for
the `roundtrip` jobs, tree files with their verify flags and expected
verdicts for `verify_corpus`, and ordinal text for the `calculus` op
stream.  The same seed always gives the same inputs.

Run `python3 perfbench/jobs.py --seed N --out DIR` to write all three
to DIR (the corpus needs `src/` of the checkout, since its trees are
built with `cbkit realize`).

Why the pools look the way they do
----------------------------------
roundtrip  The acceptance grid (GRID_RANKS x GRID_P of
           tests/test_acceptance.py) at default config, as users run
           `cbkit realize ... && cbkit verify ...`.  The whole grid takes
           about 70 s per pass, far too long for one run, so the pool
           keeps every finite cell (interpreter start dominates those),
           `w` at every p, `w+1` at p 1-2 and the four larger infinite
           ranks at p=1 (restriction_check and its shared prune stages
           dominate those).  It also holds `w+500 --depth 2`, a rank with a
           large finite part; its expected answer is exit 0, so the seed's
           RecursionError shows as a failure.  A run repeats whole rounds of
           this pool, each round in a seeded order, so every seed measures
           the same mix and the percentiles are steady.
verify_corpus  Non-default configs (-m 3..12, --depth 2..8, thirds,
           left), each realized once in set-up and written twice: as built
           and with one known defect.  Mutated trees skip
           restriction_check, and wide trees raise geometry_check's share,
           so this workload weighs load, validate and geometry more than
           `roundtrip` does.  The mutation kind of each pool entry is fixed;
           the seed picks the node it hits.
calculus   One process runs ordinal and space operations in batches.  Half
           the operands are flat normal forms below w^5, half have exponents
           nested three deep, since cmp and format_ordinal recurse on
           nesting.  It bypasses realize and oracle entirely.
"""

from __future__ import annotations

import argparse
import copy
import json
import random
from functools import cmp_to_key
from pathlib import Path

# (rank, p, extra argv); the acceptance grid subset described above
ROUNDTRIP_POOL: tuple[tuple[str, int, tuple[str, ...]], ...] = (
    *((r, p, ()) for r in ("0", "1", "2", "3") for p in (1, 2, 3, 4)),
    *(("w", p, ()) for p in (1, 2, 3, 4)),
    ("w+1", 1, ()),
    ("w+1", 2, ()),
    ("w*2", 1, ()),
    ("w^(2)", 1, ()),
    ("w^(2)+w", 1, ()),
    ("w^(w)", 1, ()),
    ("w+500", 1, ("--depth", "2")),
)

MUTATIONS = ("bump_rank", "move_center", "drop_child", "grow_radius", "wrong_tail")

# The oracle class a mutation must be reported under: the prefix of one of
# the verify report's failure strings ("structure[0]: ...", "audit: ...").
MUTATION_CLASS = {
    "bump_rank": "audit",
    "move_center": "structure",
    "drop_child": "structure",
    "grow_radius": "structure",
    "wrong_tail": "structure",
}

# (rank, p, children, depth, schedule, side); entry i is mutated by
# MUTATIONS[i % 5], so each kind hits finite and infinite ranks alike.
CORPUS_POOL: tuple[tuple[str, int, int, int, str, str], ...] = (
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

CALC_OPS = (
    "parse", "format", "add", "mul", "cmp", "sub", "fs",
    "steps", "union", "homeo", "census",
)
CALC_STREAM_LEN = 10_000


# --- roundtrip -----------------------------------------------------------

def roundtrip_key(rank: str, p: int, extra: tuple[str, ...]) -> str:
    return " ".join((rank, f"-p {p}", *extra))


def roundtrip_rounds(seed: int):
    """Endless rounds; each is the whole pool as (cell index, rank, p, extra) in seeded order."""
    rng = random.Random(f"roundtrip:{seed}")
    cells = list(enumerate(ROUNDTRIP_POOL))
    while True:
        rng.shuffle(cells)
        yield [(i, *cell) for i, cell in cells]


# --- verify_corpus -------------------------------------------------------

def corpus_flags(children: int, depth: int, schedule: str, side: str) -> list[str]:
    return ["-m", str(children), "--depth", str(depth), "--schedule", schedule, "--side", side]


def corpus_key(entry: tuple) -> str:
    rank, p, children, depth, schedule, side = entry
    return " ".join((rank, f"-p {p}", *corpus_flags(children, depth, schedule, side)))


def _nodes(tree: dict, path: tuple[int, ...] = ()):
    yield path, tree
    for i, child in enumerate(tree["children"]):
        yield from _nodes(child, path + (i,))


def _bump_text(rank: str) -> str:
    return str(int(rank) + 1) if rank.isdigit() else rank + "+1"


def mutate(payload: object, kind: str, rng: random.Random) -> object:
    """Copy of a realized tree payload with one known defect of the given kind."""
    bad = copy.deepcopy(payload)
    forest = bad if isinstance(bad, list) else [bad]
    tree = rng.choice(forest)
    nodes = list(_nodes(tree))
    if kind == "bump_rank":
        _, node = rng.choice([(p, n) for p, n in nodes if p])
        node["rank"] = _bump_text(node["rank"])
    elif kind == "move_center":
        _, node = rng.choice([(p, n) for p, n in nodes if len(n["children"]) >= 2])
        i = rng.randrange(1, len(node["children"]))
        node["children"][i]["center"] = node["children"][i - 1]["center"]
    elif kind == "drop_child":
        # a parent of leaves only, so every seed drops the same amount of tree
        bottom = [(p, n) for p, n in nodes if n["children"] and not any(c["children"] for c in n["children"])]
        _, node = rng.choice(bottom)
        del node["children"][rng.randrange(len(node["children"]))]
    elif kind == "grow_radius":
        parents = [(p, n) for p, n in nodes if n["children"]]
        _, parent = rng.choice(parents)
        rng.choice(parent["children"])["radius"] = parent["radius"]
    elif kind == "wrong_tail":
        _, node = rng.choice([(p, n) for p, n in nodes if n["tail"] is not None])
        node["tail"]["generator"] = "limit" if node["tail"]["generator"] == "successor" else "successor"
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return bad


def build_corpus(seed: int, workdir: Path, realize) -> list[dict]:
    """Realize every pool entry into workdir and write its mutated twin.

    `realize(argv, cwd)` runs `cbkit realize` and returns its exit code.
    Returns one manifest entry per file: name, verify flags, expected
    verdict and the pool entry it came from.
    """
    rng = random.Random(f"verify_corpus:{seed}")
    manifest = []
    for i, entry in enumerate(CORPUS_POOL):
        rank, p, children, depth, schedule, side = entry
        flags = corpus_flags(children, depth, schedule, side)
        good = f"c{i:02d}_valid.json"
        code = realize(["realize", rank, "-p", str(p), "--out", good, *flags], workdir)
        if code != 0:
            raise RuntimeError(f"cbkit realize exited {code} on corpus entry {corpus_key(entry)}")
        kind = MUTATIONS[i % len(MUTATIONS)]
        payload = json.loads((workdir / good).read_text())
        bad = f"c{i:02d}_{kind}.json"
        (workdir / bad).write_text(json.dumps(mutate(payload, kind, rng), indent=2) + "\n")
        common = {"entry": i, "key": corpus_key(entry), "rank": rank, "p": p, "flags": flags}
        manifest.append({**common, "file": good, "expect": {"exit": 0}})
        manifest.append({**common, "file": bad, "expect": {"exit": 1, "oracle": MUTATION_CLASS[kind]}, "mutation": kind})
    return manifest


def corpus_rounds(seed: int, manifest: list[dict]):
    rng = random.Random(f"verify_corpus-order:{seed}")
    files = list(manifest)
    while True:
        rng.shuffle(files)
        yield list(files)


# --- calculus --------------------------------------------------------------
# Ordinals here are tuples of (exponent, coefficient) with exponents again
# such tuples; just enough to emit canonical text, independent of cbkit.

ZERO_T: tuple = ()
ONE_T: tuple = ((ZERO_T, 1),)


def _ocmp(a: tuple, b: tuple) -> int:
    for (ea, ca), (eb, cb) in zip(a, b):
        c = _ocmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def _nat(n: int) -> tuple:
    return ((ZERO_T, n),) if n else ZERO_T


def _from_exponents(exps: list[tuple], rng: random.Random) -> tuple:
    unique: list[tuple] = []
    for e in exps:
        if all(_ocmp(e, u) for u in unique):
            unique.append(e)
    ordered = sorted(unique, key=cmp_to_key(_ocmp), reverse=True)
    return tuple((e, rng.randint(1, 5)) for e in ordered)


def fmt(a: tuple) -> str:
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if not e:
            parts.append(str(c))
            continue
        base = "w" if e == ONE_T else f"w^({fmt(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


def flat(rng: random.Random) -> tuple:
    """Normal form below w^5 with up to three terms."""
    return _from_exponents([_nat(e) for e in rng.sample(range(5), rng.randint(1, 3))], rng)


def nested(rng: random.Random, depth: int = 3) -> tuple:
    """Normal form whose leading exponent is nested `depth` levels deep."""
    if depth == 0:
        return _nat(rng.randint(1, 3))
    exps = [nested(rng, depth - 1)]
    exps += [_nat(rng.randint(0, 3)) for _ in range(rng.randint(0, 2))]
    return _from_exponents(exps, rng)


def _limit(a: tuple) -> tuple:
    trimmed = tuple(t for t in a if t[0])
    return trimmed or ((ONE_T, 1),)


def calculus_stream(seed: int, length: int = CALC_STREAM_LEN) -> list[str]:
    """One op per line: the op name, then its operands as ordinal text or integers."""
    rng = random.Random(f"calculus:{seed}")
    lines = []
    for _ in range(length):
        op = rng.choice(CALC_OPS)
        gen = flat if rng.random() < 0.5 else nested

        def text() -> str:
            return fmt(gen(rng))

        count = str(rng.randint(1, 5))
        if op in ("parse", "format"):
            args = [text()]
        elif op in ("add", "mul"):
            args = [text(), text(), text()]
        elif op in ("cmp", "sub"):
            a = text()
            args = [a, a if rng.random() < 0.1 else text()]
        elif op == "fs":
            args = [fmt(_limit(gen(rng))), str(rng.randint(0, 6))]
        elif op == "steps":
            args = [text(), count, text(), text()]
        elif op == "union":
            args = [text(), count, text(), str(rng.randint(1, 5))]
        elif op == "homeo":
            a = text()
            args = [a, count, a, count] if rng.random() < 0.5 else [a, count, text(), count]
        else:  # census: finite or infinite bound, always with a rank budget
            bound = str(rng.randint(1, 8)) if rng.random() < 0.5 else text()
            args = [bound, count, str(rng.randint(1, 8))]
        lines.append(" ".join([op, *args]))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    from proc import Runner

    args.out.mkdir(parents=True, exist_ok=True)
    first_round = next(roundtrip_rounds(args.seed))
    (args.out / "roundtrip_jobs.txt").write_text(
        "".join(f"realize {roundtrip_key(r, p, x)} && verify\n" for _, r, p, x in first_round)
    )
    corpus_dir = args.out / "verify_corpus"
    corpus_dir.mkdir(exist_ok=True)
    runner = Runner(Path(__file__).resolve().parent.parent)
    manifest = build_corpus(args.seed, corpus_dir, lambda argv, cwd: runner.run(argv, cwd).code)
    (corpus_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (args.out / "calculus_ops.txt").write_text("\n".join(calculus_stream(args.seed)) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
