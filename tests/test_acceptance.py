"""End-to-end acceptance gate.

Each test covers one numbered criterion and is independent of the others;
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Everything here is exact rational or ordinal arithmetic, so
there are no tolerances anywhere, only equality.
"""

from __future__ import annotations

import random
import time

from cbkit import (
    ONE,
    OMEGA,
    ZERO,
    AmbientDescriptor,
    Cardinality,
    CbChar,
    EMPTY_CLASS,
    Ordinal,
    add,
    audit_char,
    census,
    char_by_pruning,
    class_count,
    derivative,
    derivative_steps,
    format_ordinal,
    geometry_check,
    homeomorphic,
    left_sub,
    mul,
    parse_ordinal,
    realize_multi,
    restriction_check,
    union_char,
    DEFAULT_CONFIG,
)
from cbkit.oracle import count_nodes

from helpers import random_char, random_cnf, shifted_forest, stagewise_union

GRID_RANKS = ("0", "1", "2", "3", "w", "w+1", "w*2", "w^(2)", "w^(2)+w", "w^(w)")
GRID_P = (1, 2, 3, 4)

_FORESTS: dict = {}


def grid_forest(text: str, p: int):
    key = (text, p)
    if key not in _FORESTS:
        _FORESTS[key] = realize_multi(parse_ordinal(text), p)
    return _FORESTS[key]


def test_criterion_1_realization_round_trip():
    start = time.monotonic()
    for text in GRID_RANKS:
        alpha = parse_ordinal(text)
        for p in GRID_P:
            forest = grid_forest(text, p)
            assert audit_char(forest, exact=True) == CbChar(alpha, p), (text, p)
            if alpha.is_finite:
                assert char_by_pruning(forest) == CbChar(alpha, p)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 1 PASS: 40/40 grid realizations round-trip in {elapsed:.2f}s")


def test_criterion_2_pruning_matches_calculus():
    for n in range(6):
        rank = Ordinal.from_int(n)
        for p in (1, 2, 3):
            forest = realize_multi(rank, p)
            assert char_by_pruning(forest) == CbChar(rank, p), (n, p)
    print("criterion 2 PASS: 18/18 finite characteristics recovered by pruning")


def test_criterion_3_geometry_invariants():
    total_nodes = 0
    total_annuli = 0
    for text in GRID_RANKS:
        for p in GRID_P:
            for tree in grid_forest(text, p):
                report = geometry_check(tree)
                assert report.ok and report.counterexample is None, (text, p)
                total_nodes += count_nodes(tree)
                total_annuli += report.annuli
    assert total_nodes >= 1_000
    print(
        f"criterion 3 PASS: zero counterexamples over {total_annuli} annuli,"
        f" {total_nodes} nodes"
    )


def test_criterion_4_derivative_laws():
    rng = random.Random(20260816)
    fixed_points = 0
    for _ in range(500):
        s = random_char(rng)
        b1 = random_cnf(rng)
        b2 = random_cnf(rng)
        two_hops = derivative_steps(derivative_steps(s, b1), b2)
        assert derivative_steps(s, add(b1, b2)) == two_hops, (s, b1, b2)
        if not s.rank.is_finite:
            assert derivative(s) == s
            fixed_points += 1
    assert fixed_points >= 100
    for text in ("w", "w+1", "w*2", "w^(2)", "w^(w)"):
        for p in GRID_P:
            s = CbChar(parse_ordinal(text), p)
            assert derivative(s) == s
    for n in range(1, 11):
        for p in GRID_P:
            before = CbChar(Ordinal.from_int(n), p)
            assert derivative(before) == CbChar(Ordinal.from_int(n - 1), p)
    print(f"criterion 4 PASS: chain law x500, fixed points x{fixed_points}+20, decrements x40")


def test_criterion_5_union_law():
    rng = random.Random(5)
    for _ in range(100):
        s1 = random_char(rng)
        s2 = random_char(rng)
        assert union_char(s1, s2) == stagewise_union(s1, s2), (s1, s2)

    pairs = [(a, b, (a + b) % 3 + 1, a * b % 2 + 1) for a in range(4) for b in range(4)]
    pairs += [(0, 3, 3, 2), (1, 2, 2, 3), (2, 2, 3, 3), (3, 3, 2, 1)]
    assert len(pairs) == 20
    for a, b, pa, pb in pairs:
        left = shifted_forest(Ordinal.from_int(a), pa, 0, DEFAULT_CONFIG)
        right = shifted_forest(Ordinal.from_int(b), pb, 10, DEFAULT_CONFIG)
        expected = union_char(CbChar(Ordinal.from_int(a), pa), CbChar(Ordinal.from_int(b), pb))
        assert char_by_pruning(left + right) == expected, (a, b, pa, pb)
    print("criterion 5 PASS: stage-wise x100, disjoint-forest pruning x20")


def test_criterion_6_restriction_identity():
    checked = 0
    for text in GRID_RANKS:
        for p in GRID_P:
            for tree in grid_forest(text, p):
                for n in range(min(4, len(tree.children))):
                    for beta in range(4):
                        assert restriction_check(tree, n, beta), (
                            text,
                            p,
                            n,
                            beta,
                        )
                        checked += 1
    # every tree of positive rank has four children, hence 16 combinations
    assert checked == 9 * (1 + 2 + 3 + 4) * 16
    print(f"criterion 6 PASS: restriction identity on {checked} (tree, annulus, stage) cases")


def test_criterion_7_rank_bound():
    rng = random.Random(7)
    samples = [CbChar(parse_ordinal(t), p) for t in GRID_RANKS for p in GRID_P]
    samples += [random_char(rng) for _ in range(200)]
    for s in samples:
        assert derivative_steps(s, add(s.rank, ONE)) == EMPTY_CLASS, s
        assert derivative_steps(s, s.rank) == CbChar(ZERO, s.count), s
    print(f"criterion 7 PASS: vanishing beyond the rank on {len(samples)} samples")


def test_criterion_8_counting():
    for n in range(21):
        assert class_count(AmbientDescriptor.finite(n)) == Cardinality.finite(n + 1)
    for b in (1, 2, 3):
        for p in range(1, 6):
            assert len(census(Ordinal.from_int(b), p)) == 1 + b * p
    for p in range(1, 6):
        assert len(census(OMEGA, p, max_ranks=50)) == 1 + 50 * p
    grid_chars = [CbChar(parse_ordinal(t), p) for t in GRID_RANKS for p in GRID_P]
    for i, c1 in enumerate(grid_chars):
        for c2 in grid_chars[i + 1 :]:
            assert not homeomorphic(c1, c2), (c1, c2)
    print("criterion 8 PASS: finite counts x21, census sizes x20, injectivity on 40 classes")


def test_criterion_9_ordinal_suite():
    rng = random.Random(9)
    start = time.monotonic()
    for _ in range(500):
        a, b, c = random_cnf(rng), random_cnf(rng), random_cnf(rng)
        assert add(add(a, b), c) == add(a, add(b, c)), (a, b, c)
    for _ in range(500):
        a, b, c = random_cnf(rng), random_cnf(rng), random_cnf(rng)
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c)), (a, b, c)
    for _ in range(500):
        b, c = random_cnf(rng), random_cnf(rng)
        a = add(b, c)
        assert add(b, left_sub(b, a)) == a, (a, b)
    for _ in range(500):
        x = random_cnf(rng)
        text = format_ordinal(x)
        assert parse_ordinal(text) == x
        assert parse_ordinal(text, strict=True) == x
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"criterion 9 PASS: 2000 ordinal law cases in {elapsed:.2f}s")
