"""Ordinal arithmetic: fixed values, parser behaviour, algebraic laws.

Expected values for the nontrivial sums and products were computed with
the definitional triple oracle in cnf_reference (frozen below and
re-asserted against the oracle at test time).
"""

from __future__ import annotations

import copy
import pickle
import random
import sys
from dataclasses import fields, replace
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings, strategies as st

from cbkit import ordinal
from cbkit.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    NotCanonicalError,
    NotLimitError,
    Ordinal,
    OrdinalParseError,
    SubtractionUndefinedError,
    add,
    cmp,
    format_ordinal,
    fundamental_seq,
    left_sub,
    mul,
    omega_pow,
    parse_ordinal,
)
from cnf_reference import tadd, tcmp, tmul
from helpers import (
    assert_survives_checks,
    random_cnf,
    st_limit_ordinal,
    st_nested_ordinal,
    st_nested_terms,
    st_ordinal,
)
import ordinal_reference as reference

W2 = omega_pow(Ordinal.from_int(2))
P = parse_ordinal


def to_triple(a: Ordinal):
    out = [0, 0, 0]
    for e, c in a.terms:
        if not e.is_finite or int(e) > 2:
            return None
        out[2 - int(e)] = c
    return tuple(out)


def from_triple(t) -> Ordinal:
    terms = []
    if t[0]:
        terms.append((Ordinal.from_int(2), t[0]))
    if t[1]:
        terms.append((ONE, t[1]))
    if t[2]:
        terms.append((ZERO, t[2]))
    return Ordinal(tuple(terms))


# ---------------------------------------------------------------- fixed values


def test_cmp_examples():
    assert cmp(Ordinal.from_int(5), OMEGA) < 0
    assert cmp(P("w^(2)*2+w"), P("w^(2)*3")) < 0
    assert cmp(P("w^(w)"), P("w^(w)")) == 0


def test_add_examples():
    assert add(OMEGA, ONE) == P("w+1")
    assert add(ONE, OMEGA) == OMEGA
    # frozen from the triple oracle: (1,1,0)+(0,1,1) = (1,2,1)
    assert tadd((1, 1, 0), (0, 1, 1)) == (1, 2, 1)
    assert add(P("w^(2)+w"), P("w+1")) == from_triple((1, 2, 1))
    assert format_ordinal(add(P("w^(2)+w"), P("w+1"))) == "w^(2)+w*2+1"


def test_mul_examples():
    assert mul(Ordinal.from_int(2), OMEGA) == OMEGA
    assert mul(OMEGA, Ordinal.from_int(2)) == P("w*2")
    # frozen from the triple oracle: (0,2,0)*(0,1,0) = (1,0,0)
    assert tmul((0, 2, 0), (0, 1, 0)) == (1, 0, 0)
    assert mul(P("w*2"), OMEGA) == W2
    assert format_ordinal(mul(P("w^(w)+1"), P("w*2+3"))) == "w^(w+1)*2+w^(w)*3+1"
    assert format_ordinal(mul(P("w^(w)*2+w+3"), 4)) == "w^(w)*8+w+3"


def test_omega_pow_examples():
    assert omega_pow(ZERO) == ONE
    assert omega_pow(ONE) == OMEGA
    assert omega_pow(OMEGA) == P("w^(w)")
    assert omega_pow(ONE) < omega_pow(Ordinal.from_int(2))


def test_left_sub_examples():
    assert left_sub(ONE, OMEGA) == OMEGA
    assert left_sub(OMEGA, P("w*2")) == OMEGA
    with pytest.raises(SubtractionUndefinedError):
        left_sub(P("w*2"), OMEGA)


def test_fundamental_seq_examples():
    assert fundamental_seq(OMEGA, 3) == Ordinal.from_int(4)
    assert fundamental_seq(W2, 2) == P("w*3")
    assert fundamental_seq(P("w^(w)"), 2) == P("w^(3)")
    assert fundamental_seq(P("w*2"), 1) == P("w+2")
    with pytest.raises(NotLimitError):
        fundamental_seq(ZERO, 1)
    with pytest.raises(NotLimitError):
        fundamental_seq(P("w+1"), 1)


def test_parse_examples():
    a = P("w^(w)*2+w*3+5")
    assert a.terms == ((OMEGA, 2), (ONE, 3), (ZERO, 5))
    assert P("0") == ZERO
    assert P("w+w") == P("w*2")
    with pytest.raises(NotCanonicalError):
        parse_ordinal("w+w", strict=True)


def test_parse_errors_carry_position():
    for text in ("", "w^", "w^(w", "3+", "w*", "+1", "w**2", "q"):
        with pytest.raises(OrdinalParseError) as exc:
            parse_ordinal(text)
        assert exc.value.position >= 0
        assert "position" in str(exc.value)


def nested(depth: int) -> str:
    return "w^(" * depth + "1" + ")" * depth


def test_parse_bounds_exponent_nesting():
    limit = ordinal.MAX_EXPONENT_NESTING
    deepest = P(nested(limit))
    assert P(format_ordinal(deepest)) == deepest
    assert cmp(deepest, OMEGA) == 1
    for depth in (limit + 1, 1000):
        with pytest.raises(OrdinalParseError) as exc:
            parse_ordinal(nested(depth))
        assert exc.value.position == 3 * limit + 3
    # the bound counts open exponents, not exponents overall
    assert P("+".join([nested(limit)] * 3)) == mul(deepest, 3)


def test_strict_mode_rejections():
    for text in ("w+w", "1+w", "w*0", "0+0", "w+w^(2)"):
        with pytest.raises(NotCanonicalError):
            parse_ordinal(text, strict=True)
    # canonical text passes strict mode unchanged
    for text in ("0", "7", "w", "w*2+1", "w^(w+1)*3+w^(2)+4"):
        assert parse_ordinal(text, strict=True) == P(text)


def test_format_round_trip_fixed():
    for text in ("0", "1", "42", "w", "w+1", "w*2", "w^(2)", "w^(w)", "w^(w^(w))+w^(2)*9+3"):
        assert format_ordinal(P(text)) == text


def test_int_interop():
    assert Ordinal.from_int(7) == 7
    assert int(Ordinal.from_int(7)) == 7
    assert OMEGA + 1 == P("w+1")
    assert 1 + OMEGA == OMEGA
    assert 2 * OMEGA == OMEGA
    assert OMEGA * 2 == P("w*2")
    assert 3 < OMEGA
    assert OMEGA <= P("w+1")
    with pytest.raises(ValueError):
        int(OMEGA)
    with pytest.raises(ValueError):
        Ordinal.from_int(-1)


def test_ordinal_structure_validation():
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 0),))
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 1), (ONE, 1)))  # increasing exponents
    with pytest.raises(TypeError):
        Ordinal(((1, 1),))
    # a list of terms once built a value that printed as 1 yet did not
    # equal ONE and could not be ordered against it
    for terms in ([(ZERO, 1)], [], iter(((ZERO, 1),)), None):
        with pytest.raises(TypeError, match="^terms must be a tuple of"):
            Ordinal(terms)


def test_classification_helpers():
    assert ZERO.is_zero and not ZERO.is_successor and not ZERO.is_limit
    assert ONE.is_successor and ONE.pred() == ZERO
    assert OMEGA.is_limit and not OMEGA.is_finite
    assert P("w+3").is_successor and P("w+3").pred() == P("w+2")
    assert P("w*2").is_limit
    with pytest.raises(ValueError):
        OMEGA.pred()


# -------------------------------------------------------- oracle cross-checks


def test_add_matches_triple_oracle_randomized():
    rng = random.Random(20260816)
    for _ in range(500):
        a = tuple(rng.randint(0, 4) for _ in range(3))
        b = tuple(rng.randint(0, 4) for _ in range(3))
        assert to_triple(add(from_triple(a), from_triple(b))) == tadd(a, b)
        assert cmp(from_triple(a), from_triple(b)) == tcmp(a, b)


def test_mul_matches_triple_oracle_randomized():
    rng = random.Random(8)
    checked = 0
    while checked < 500:
        a = tuple(rng.randint(0, 3) for _ in range(3))
        b = tuple(rng.randint(0, 3) for _ in range(3))
        try:
            want = tmul(a, b)
        except OverflowError:
            # product left the oracle's range; the package must agree it
            # reaches w^3
            assert to_triple(mul(from_triple(a), from_triple(b))) is None
            continue
        assert to_triple(mul(from_triple(a), from_triple(b))) == want
        checked += 1


# ------------------------------------------------------------- algebraic laws


@given(st_ordinal, st_ordinal, st_ordinal)
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(st_ordinal)
def test_add_identity(a):
    assert add(a, ZERO) == a
    assert add(ZERO, a) == a


@given(st_ordinal, st_ordinal, st_ordinal)
def test_mul_left_distributive(a, b, c):
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(st_ordinal, st_ordinal)
def test_mul_associative_sampled(a, b):
    c = OMEGA
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(st_ordinal, st_ordinal)
def test_subtraction_law(b, c):
    a = add(b, c)
    assert left_sub(b, a) == c or add(b, left_sub(b, a)) == a
    assert add(b, left_sub(b, a)) == a


@given(st_ordinal, st_ordinal, st_ordinal)
def test_add_right_strictly_monotone(a, b, c):
    if b == c:
        return
    lo, hi = (b, c) if b < c else (c, b)
    assert add(a, lo) < add(a, hi)


@given(st_ordinal, st_ordinal, st_ordinal)
def test_cmp_total_order(a, b, c):
    assert cmp(a, b) == -cmp(b, a)
    if cmp(a, b) == 0:
        assert a == b and hash(a) == hash(b)
    if a <= b and b <= c:
        assert a <= c


@given(st_ordinal)
def test_parse_format_round_trip(a):
    assert parse_ordinal(format_ordinal(a)) == a
    assert parse_ordinal(format_ordinal(a), strict=True) == a


@given(st_ordinal, st_ordinal)
def test_outputs_canonical(a, b):
    for value in (add(a, b), mul(a, b), omega_pow(a)):
        exps = [e for e, _ in value.terms]
        assert exps == sorted(exps, reverse=True)
        assert len(set(exps)) == len(exps)
        assert all(c >= 1 for _, c in value.terms)


@settings(max_examples=60)
@given(st_limit_ordinal, st.integers(min_value=0, max_value=30))
def test_fundamental_seq_increasing_and_bounded(lam, n):
    assert fundamental_seq(lam, n) < fundamental_seq(lam, n + 1) < lam


@settings(max_examples=40)
@given(st_limit_ordinal, st_ordinal)
def test_fundamental_seq_cofinal(lam, beta):
    if beta >= lam:
        return
    assert any(fundamental_seq(lam, n) > beta for n in range(10_000))


def test_fundamental_seq_rejects_bad_index():
    with pytest.raises(ValueError):
        fundamental_seq(OMEGA, -1)


def test_repr_and_str():
    a = P("w^(2)+3")
    assert str(a) == "w^(2)+3"
    assert "w^(2)+3" in repr(a)


def test_random_cnf_helper_is_canonical():
    rng = random.Random(1)
    for _ in range(200):
        a = random_cnf(rng)
        exps = [e for e, _ in a.terms]
        assert exps == sorted(exps, reverse=True)


# ------------------------------------------- order against the reference walk


def rebuilt(a: Ordinal) -> Ordinal:
    """An equal ordinal that shares no term object with a."""
    return Ordinal(tuple((rebuilt(e), c) for e, c in a.terms))


def neighbours(a: Ordinal) -> list[Ordinal]:
    """Values next to a in the order: a copy, a prefix, a changed last coefficient."""
    out = [rebuilt(a)]
    if a.terms:
        (e, c) = a.terms[-1]
        out.append(Ordinal(a.terms[:-1]))
        out.append(Ordinal(a.terms[:-1] + ((e, c + 1),)))
        if c > 1:
            out.append(Ordinal(a.terms[:-1] + ((e, c - 1),)))
    return out


def key_order(x: Ordinal | int, y: Ordinal | int) -> int:
    """-1, 0 or 1 by the built-in order of the nested tuple keys."""
    kx, ky = (reference.key(Ordinal.from_int(v) if isinstance(v, int) else v) for v in (x, y))
    return (kx > ky) - (kx < ky)


@settings(max_examples=300, deadline=None)
@given(st_nested_ordinal, st_nested_ordinal, st.integers(min_value=0, max_value=3))
@example(P("w^(w)*2+w"), P("w^(w)*2+w+1"), 0)
def test_order_matches_reference(a, b, n):
    # against two references: the walk written out, and nested plain
    # tuples, whose order runs no Ordinal method.  The operands include
    # equal values that share no term object, values built on a's own
    # exponent objects, every proper prefix of a, and ints.
    shared = Ordinal(tuple((e, c + 1) for e, c in a.terms))
    prefixes = [Ordinal(a.terms[:k]) for k in range(len(a.terms))]
    others = [b, Ordinal.from_int(n), n, a, shared, *prefixes, *neighbours(a)]
    for x, y in [pair for c in others for pair in ((a, c), (c, a))]:
        want = key_order(x, y)
        if not isinstance(x, int) and not isinstance(y, int):
            assert reference.cmp(x, y) == want
        assert cmp(x, y) == want
        assert ((x < y), (x <= y), (x > y), (x >= y), (x == y)) == (
            want < 0, want <= 0, want > 0, want >= 0, want == 0
        )


@settings(max_examples=100, deadline=None)
@given(st.lists(st_nested_ordinal, max_size=8))
def test_sorted_matches_reference(values):
    values = values + [c for v in values[:2] for c in neighbours(v)]
    by_reference = sorted(values, key=cmp_to_key(reference.cmp))
    assert [str(v) for v in sorted(values)] == [str(v) for v in by_reference]


# the law tests above draw below w^w; these pairs nest exponents, and the
# reference sums the pieces of the product with add instead of splicing them
@settings(max_examples=300, deadline=None)
@given(st_nested_ordinal, st_nested_ordinal)
@example(Ordinal.from_int(3), OMEGA)
@example(P("w^(w)+1"), P("w*2+3"))
@example(P("w^(w)*2+w+3"), Ordinal.from_int(4))
def test_mul_matches_reference(a, b):
    assert mul(a, b) == reference.mul(a, b)


def term_text(exponent: Ordinal, coefficient: int) -> str:
    if exponent.is_zero:
        return str(coefficient)
    base = "w" if exponent == ONE else f"w^({format_ordinal(exponent)})"
    return base if coefficient == 1 else f"{base}*{coefficient}"


@settings(max_examples=300, deadline=None)
@given(st_nested_terms)
def test_normal_form_check_matches_reference(terms):
    decreasing = reference.strictly_decreasing([e for e, _ in terms])
    if decreasing:
        value = Ordinal(tuple(terms))
    else:
        with pytest.raises(ValueError, match="^exponents must be strictly decreasing$"):
            Ordinal(tuple(terms))
    text = "+".join(term_text(e, c) for e, c in terms) or "0"
    if decreasing:
        assert parse_ordinal(text, strict=True) == value
    else:
        with pytest.raises(NotCanonicalError, match="^terms not strictly decreasing "):
            parse_ordinal(text, strict=True)


def test_order_at_the_deepest_nesting():
    limit = ordinal.MAX_EXPONENT_NESTING
    one, two = P(nested(limit)), P("w^(" * limit + "2" + ")" * limit)
    assert (cmp(one, two), cmp(two, one), cmp(one, P(nested(limit)))) == (-1, 1, 0)
    assert one < two and two >= one and one != two
    assert reference.cmp(one, two) == -1


@settings(max_examples=200, deadline=None)
@given(st_nested_ordinal)
def test_hash_keeps_its_value_and_is_computed_once(a):
    fresh = parse_ordinal(format_ordinal(a))  # equal, and shares no term object
    unhashed = pickle.dumps(fresh)
    value = hash(a)
    assert value == hash(reference.ParentHash(a)) == hash(fresh)
    assert hash(a) == value and fresh._hash == value
    # computed once: with other terms swapped in under the memo, the hash
    # still reads the first value
    memo = Ordinal(a.terms)
    assert hash(memo) == value
    successor = add(a, ONE)
    object.__setattr__(memo, "terms", successor.terms)
    assert memo == successor and hash(memo) == value != hash(successor)
    # the memo is not pickled, and copies start without one
    assert pickle.dumps(fresh) == unhashed
    for twin in (replace(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and not hasattr(twin, "_hash")
        assert hash(twin) == value
    if a.is_finite:
        assert value == hash(int(a))


def test_hash_memo_is_no_field():
    a = P("w^(w)*2+w+3")
    hash(a)
    assert [f.name for f in fields(Ordinal)] == ["terms"]
    assert repr(a) == 'Ordinal("w^(w)*2+w+3")'
    assert replace(a) == a and not hasattr(replace(a), "_hash")
    # the memo sits in a slot: no ordinal has an instance dict
    assert a._hash == hash(a) and not hasattr(a, "__dict__")
    assert hash(Ordinal.from_int(7)) == hash(7) and hash(ZERO) == hash(0)


# protocol 2 and 4 pickles of a nested ordinal, as written before Ordinal
# had slots: stored pickles must still load, and new ones must not differ
PICKLED_TEXT = "w^(w^(2)+1)*2+w+3"
PICKLED = {
    2: (
        b"\x80\x02ccbkit.ordinal\nOrdinal\nq\x00)\x81q\x01}q\x02X\x05\x00\x00\x00termsq\x03"
        b"h\x00)\x81q\x04}q\x05h\x03h\x00)\x81q\x06}q\x07h\x03h\x00)\x81q\x08}q\th\x03)sbK"
        b"\x02\x86q\n\x85q\x0bsbK\x01\x86q\x0ch\x08K\x01\x86q\r\x86q\x0esbK\x02\x86q\x0f"
        b"h\x00)\x81q\x10}q\x11h\x03h\x08K\x01\x86q\x12\x85q\x13sbK\x01\x86q\x14h\x08K\x03"
        b"\x86q\x15\x87q\x16sb."
    ),
    4: (
        b"\x80\x04\x95\x83\x00\x00\x00\x00\x00\x00\x00\x8c\rcbkit.ordinal\x94\x8c\x07"
        b"Ordinal\x94\x93\x94)\x81\x94}\x94\x8c\x05terms\x94h\x02)\x81\x94}\x94h\x05h\x02)"
        b"\x81\x94}\x94h\x05h\x02)\x81\x94}\x94h\x05)sbK\x02\x86\x94\x85\x94sbK\x01\x86"
        b"\x94h\nK\x01\x86\x94\x86\x94sbK\x02\x86\x94h\x02)\x81\x94}\x94h\x05h\nK\x01"
        b"\x86\x94\x85\x94sbK\x01\x86\x94h\nK\x03\x86\x94\x87\x94sb."
    ),
}


@pytest.mark.parametrize("protocol", sorted(PICKLED))
def test_pickle_bytes_are_stable(protocol):
    a = P(PICKLED_TEXT)
    loaded = pickle.loads(PICKLED[protocol])
    assert loaded == a and format_ordinal(loaded) == PICKLED_TEXT
    assert_survives_checks(loaded)
    hash(a)  # the memo stays out of the bytes
    assert pickle.dumps(a, protocol) == PICKLED[protocol]


def test_copies_equal_their_sources():
    a = P(PICKLED_TEXT)
    for source in (a, ZERO, ONE):
        assert copy.copy(source) == source and copy.deepcopy(source) == source
    assert Ordinal() == ZERO and Ordinal().terms == ()


def test_eq_operands():
    a = P("w+1")
    assert a == a and a == P("w+1") and a != P("w")
    assert Ordinal.from_int(3) == 3 and 3 == Ordinal.from_int(3)
    assert a != "w+1" and a != 1.0 and ZERO != False  # noqa: E712


# ------------------------------------------------ values built without checks


@settings(max_examples=300, deadline=None)
@given(st_nested_ordinal, st_nested_ordinal, st.integers(min_value=0, max_value=5))
@example(P("w^(w)*2+w+3"), P("w^(w+1)+4"), 3)
def test_derived_values_pass_the_checks(a, b, n):
    # every operation and the parser build their results without the
    # constructor's checks, from values already in normal form
    results = [
        add(a, b),
        add(b, a),
        mul(a, b),
        mul(b, a),
        omega_pow(a),
        left_sub(a, add(a, b)),
        Ordinal.from_int(n),
        parse_ordinal(format_ordinal(a)),
        parse_ordinal(format_ordinal(a), strict=True),
        # a sum out of order folds through add
        parse_ordinal(f"{format_ordinal(b)}+{format_ordinal(a)}"),
    ]
    for x in (a, b):
        if x.is_successor:
            results.append(x.pred())
        if x.is_limit:
            results.append(fundamental_seq(x, n))
    for r in results:
        assert_survives_checks(r)


# ------------------------------------------------ parser against the reference

WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
# every character the grammar gives a meaning, whitespace, and digits and
# signs that int would read but the grammar refuses
PARSE_ALPHABET = "w^()*+0123456789 " + "".join(WHITESPACE) + "²٣_-x"


def terms_text(terms: list[tuple[Ordinal, int]]) -> str:
    return "+".join(term_text(e, c) for e, c in terms) or "0"


@st.composite
def st_parse_text(draw) -> str:
    """Valid texts, sums out of normal form, and either one mutated."""
    chars = list(draw(st_nested_ordinal.map(format_ordinal) | st_nested_terms.map(terms_text)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(chars)))
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        if kind == "insert":
            chars.insert(at, draw(st.sampled_from(PARSE_ALPHABET)))
        elif chars:
            at = min(at, len(chars) - 1)
            if kind == "delete":
                del chars[at]
            else:
                chars[at] = draw(st.sampled_from(PARSE_ALPHABET))
    return "".join(chars)


def parsed(parse, text: str, strict: bool):
    """The value and its text, or the class, message and position of the error."""
    try:
        value = parse(text, strict=strict)
    except Exception as exc:  # the two parsers must fail alike
        return type(exc), str(exc), getattr(exc, "position", None)
    return value, format_ordinal(value)


def parse_examples(test):
    """Pin every whitespace character, digits that int reads but the grammar
    refuses, 5,000-digit numbers, and nesting at the bound and one past it."""
    texts = [f"{c}w{c}^{c}({c}w{c}+{c}1{c}){c}*{c}2{c}+{c}3{c}" for c in WHITESPACE]
    texts += [f"1{c}2" for c in WHITESPACE]
    texts += ["²", "w*²", "1²", "٣", "w^(٣)", "w*1_0", "-1", "+2"]
    texts += ["7" * 5000, "w*" + "9" * 5000 + "+1", "w^(" + "1" * 5000 + ")"]
    texts += [nested(ordinal.MAX_EXPONENT_NESTING), nested(ordinal.MAX_EXPONENT_NESTING + 1)]
    texts += ["w^(" * 101 + ")" * 101, "w^(1+w)+w^(w)", "w^(0)*0", "00", "0+0", ""]
    for text in texts:
        test = example(text)(test)
    return test


@settings(max_examples=500, deadline=None)
@given(st_parse_text())
@parse_examples
def test_parser_matches_reference(text):
    for strict in (False, True):
        assert parsed(parse_ordinal, text, strict) == parsed(reference.parse_ordinal, text, strict)
