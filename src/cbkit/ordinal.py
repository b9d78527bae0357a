"""Exact arithmetic on countable ordinals below epsilon-zero.

Values are kept in Cantor normal form (CNF): a finite sum
``w^(e1)*c1 + ... + w^(ek)*ck`` with strictly decreasing ordinal exponents
``e1 > ... > ek`` and integer coefficients ``ci >= 1``.  The empty sum is 0.
Exponents are themselves ordinals in normal form, which closes the
representation under everything the rest of the package needs: comparison,
addition, multiplication, base-omega powers, left subtraction, and canonical
fundamental sequences for limit values.

The ASCII surface syntax is::

    expr := term ('+' term)*
    term := 'w' ('^' '(' expr ')')? ('*' nat)? | nat

so ``w^(w)*2+w*3+5`` denotes ``w^w * 2 + w * 3 + 5``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields
from typing import Callable, NoReturn

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "OrdinalParseError",
    "NotCanonicalError",
    "SubtractionUndefinedError",
    "NotLimitError",
    "PrintBudgetError",
    "cmp",
    "add",
    "mul",
    "omega_pow",
    "left_sub",
    "fundamental_seq",
    "parse_ordinal",
    "MAX_EXPONENT_NESTING",
    "format_ordinal",
]


class OrdinalParseError(ValueError):
    """Malformed ordinal expression text."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotCanonicalError(OrdinalParseError):
    """Strict parse mode rejected input that is not already canonical."""


class SubtractionUndefinedError(ArithmeticError):
    """``left_sub(b, a)`` needs ``b <= a``; no ordinal completes the sum."""


class NotLimitError(ValueError):
    """Fundamental sequences exist only for nonzero limit ordinals."""


class PrintBudgetError(RuntimeError):
    """A result holds an integer longer than Python converts to text."""

    def __init__(self) -> None:
        super().__init__(f"an integer of the result has more than {sys.get_int_max_str_digits()} digits")


def _is_natural(value: object, least: int = 0) -> bool:
    """The natural number rule: an int, not a bool, at least `least`."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _require_natural(value: object, name: str, least: int = 0) -> None:
    if not _is_natural(value, least):
        raise ValueError(f"{name} must be an integer >= {least}")


def _operator(op: Callable[[Ordinal, Ordinal], object]) -> Callable[[Ordinal, object], object]:
    """A binary method of Ordinal: op on the coerced operand, or NotImplemented."""

    def method(self: Ordinal, other: object):
        coerced = _coerce(other)
        return NotImplemented if coerced is None else op(self, coerced)

    return method


def _field_state(cls: type) -> type:
    """Pickle and copy a frozen slotted dataclass as the dict of its fields."""
    # The dict an instance dict held before the classes had slots, so
    # stored pickles load and new ones keep their bytes; a slot that is not
    # a field, such as a memo, is never carried.  Applied above the
    # dataclass decorator, because dataclass(slots=True) before Python 3.11
    # puts its own list-state pair over a frozen class's pair.
    names = tuple(f.name for f in fields(cls))

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in names}

    def __setstate__(self, state: dict) -> None:
        for name in names:
            object.__setattr__(self, name, state[name])

    cls.__getstate__ = __getstate__
    cls.__setstate__ = __setstate__
    return cls


@_field_state
@dataclass(frozen=True, eq=False, repr=False)
class Ordinal:
    """A countable ordinal below epsilon-zero, in Cantor normal form."""

    # no instance dict: the terms and the hash memo are slots
    __slots__ = ("terms", "_hash")

    terms: tuple[tuple["Ordinal", int], ...]

    def __init__(self, terms: tuple[tuple["Ordinal", int], ...] = ()) -> None:
        if not isinstance(terms, tuple):
            raise TypeError("terms must be a tuple of (exponent, coefficient) pairs")
        prev: Ordinal | None = None
        for term in terms:
            if not (isinstance(term, tuple) and len(term) == 2):
                raise TypeError("terms must be (exponent, coefficient) pairs")
            exponent, coefficient = term
            if not isinstance(exponent, Ordinal):
                raise TypeError("exponents must be Ordinal values")
            _require_natural(coefficient, "coefficient", 1)
            if prev is not None and _order(exponent.terms, prev.terms) >= 0:
                raise ValueError("exponents must be strictly decreasing")
            prev = exponent
        _set_terms(self, terms)

    @classmethod
    def _from_normal(cls, terms: tuple[tuple["Ordinal", int], ...]) -> "Ordinal":
        """An ordinal of terms already in normal form, built without the checks.

        For values the module derives itself, as Fraction._from_coprime_ints
        does for fractions.
        """
        self = object.__new__(cls)
        _set_terms(self, terms)
        return self

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        """The finite ordinal n.

        Below 256 this is the one shared object of that value, which the
        parser returns too; above, a new value.
        """
        _require_natural(n, "n")
        return _FINITE[n] if n < len(_FINITE) else cls._from_normal(((ZERO, n),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    def pred(self) -> "Ordinal":
        """The ordinal directly below a successor."""
        if not self.is_successor:
            raise ValueError(f"not a successor ordinal: {self}")
        head, (exponent, coefficient) = self.terms[:-1], self.terms[-1]
        if coefficient > 1:
            return Ordinal._from_normal(head + ((exponent, coefficient - 1),))
        return Ordinal._from_normal(head)

    def __int__(self) -> int:
        if not self.is_finite:
            raise ValueError(f"not a finite ordinal: {self}")
        return self.terms[0][1] if self.terms else 0

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object):
        if other is self:
            return True
        if isinstance(other, Ordinal):
            return self.terms == other.terms
        coerced = _coerce(other)
        if coerced is None:
            return NotImplemented
        return self.terms == coerced.terms

    def __hash__(self) -> int:
        # computed once per object and kept in the _hash slot, which starts
        # unset and is read without raising; a finite ordinal hashes as its
        # int, since the two compare equal
        value = getattr(self, "_hash", None)
        if value is not None:
            return value
        terms = self.terms
        if not terms:
            value = 0
        elif len(terms) == 1 and not terms[0][0].terms:
            value = hash(terms[0][1])
        else:
            value = hash(terms)
        _set_hash(self, value)
        return value

    __lt__ = _operator(lambda a, b: _order(a.terms, b.terms) < 0)
    __le__ = _operator(lambda a, b: _order(a.terms, b.terms) <= 0)
    __gt__ = _operator(lambda a, b: _order(a.terms, b.terms) > 0)
    __ge__ = _operator(lambda a, b: _order(a.terms, b.terms) >= 0)
    __add__ = _operator(lambda a, b: add(a, b))
    __radd__ = _operator(lambda a, b: add(b, a))
    __mul__ = _operator(lambda a, b: mul(a, b))
    __rmul__ = _operator(lambda a, b: mul(b, a))

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f'Ordinal("{format_ordinal(self)}")'


def _order(ta: tuple[tuple[Ordinal, int], ...], tb: tuple[tuple[Ordinal, int], ...]) -> int:
    """-1, 0 or 1 as the normal form ta is below, equal to or above tb.

    The first term that differs decides: a larger exponent wins, then a
    larger coefficient, and a proper prefix is smaller.  Exponents compare
    by the same walk one level down, entered only for two distinct objects.
    """
    if ta is tb:
        return 0
    for (ea, ca), (eb, cb) in zip(ta, tb):
        if ea is not eb:
            order = _order(ea.terms, eb.terms)
            if order:
                return order
        if ca != cb:
            return -1 if ca < cb else 1
    la, lb = len(ta), len(tb)
    return 0 if la == lb else -1 if la < lb else 1


# Writers of the two slots, which the frozen __setattr__ refuses.  Called
# directly they skip the name lookup that object.__setattr__ makes.
_set_terms = Ordinal.terms.__set__
_set_hash = Ordinal._hash.__set__


def _coerce(value: object) -> Ordinal | None:
    """The ordinal operand rule: an Ordinal, or a natural number read as one."""
    if isinstance(value, Ordinal):
        return value
    if _is_natural(value):
        return Ordinal.from_int(value)
    return None


def _require(value: object) -> Ordinal:
    if type(value) is Ordinal:
        return value
    coerced = _coerce(value)
    if coerced is None:
        raise TypeError(f"expected an ordinal, got {value!r}")
    return coerced


def cmp(a: Ordinal | int, b: Ordinal | int) -> int:
    """Trichotomy on ordinals: -1, 0 or 1 as a <, = or > b."""
    return _order(_require(a).terms, _require(b).terms)


def add(a: Ordinal | int, b: Ordinal | int) -> Ordinal:
    """Ordinal sum a + b.  Small left summands are absorbed: 1 + w = w."""
    a, b = _require(a), _require(b)
    if not b.terms:
        return a
    if not a.terms:
        return b
    lead = b.terms[0][0]
    head: list[tuple[Ordinal, int]] = []
    merged = False
    for exponent, coefficient in a.terms:
        order = _order(exponent.terms, lead.terms)
        if order > 0:
            head.append((exponent, coefficient))
        elif order == 0:
            head.append((lead, coefficient + b.terms[0][1]))
            merged = True
            break
        else:
            break
    rest = b.terms[1:] if merged else b.terms
    return Ordinal._from_normal(tuple(head) + rest)


def mul(a: Ordinal | int, b: Ordinal | int) -> Ordinal:
    """Ordinal product a * b, distributed over the normal form of b."""
    a, b = _require(a), _require(b)
    if not a.terms or not b.terms:
        return ZERO
    # a term w^(e)*c of b with e > 0 gives w^(lead+e)*c, and a finite last
    # term n gives a with its leading coefficient times n; the pieces'
    # leading exponents strictly decrease, so the product is their terms
    # in order
    (lead, coefficient), rest = a.terms[0], a.terms[1:]
    terms = tuple((add(lead, e), c) for e, c in b.terms if e.terms)
    if b.is_successor:
        terms += ((lead, coefficient * b.terms[-1][1]),) + rest
    return Ordinal._from_normal(terms)


def omega_pow(a: Ordinal | int) -> Ordinal:
    """w raised to the ordinal a."""
    return Ordinal._from_normal(((_require(a), 1),))


def left_sub(b: Ordinal | int, a: Ordinal | int) -> Ordinal:
    """The unique g with b + g = a, defined when b <= a."""
    b, a = _require(b), _require(a)
    i = 0
    while i < len(b.terms) and i < len(a.terms):
        (be, bc), (ae, ac) = b.terms[i], a.terms[i]
        order = _order(be.terms, ae.terms)
        if order > 0:
            raise SubtractionUndefinedError(f"{b} > {a}")
        if order < 0:
            return Ordinal._from_normal(a.terms[i:])
        if bc < ac:
            return Ordinal._from_normal(((ae, ac - bc),) + a.terms[i + 1 :])
        if bc > ac:
            raise SubtractionUndefinedError(f"{b} > {a}")
        i += 1
    if i == len(b.terms):
        return Ordinal._from_normal(a.terms[i:])
    raise SubtractionUndefinedError(f"{b} > {a}")


def fundamental_seq(lam: Ordinal | int, n: int) -> Ordinal:
    """Member n of the canonical increasing sequence converging to lam.

    The scheme is fixed so every consumer sees the same approximants:
    (g + w^(d+1))[n] = g + w^(d)*(n+1), and (g + w^(m))[n] = g + w^(m[n])
    for limit exponents m.  Hence w[n] = n+1 and w^(w)[2] = w^(3).
    """
    lam = _require(lam)
    _require_natural(n, "index")
    if not lam.is_limit:
        raise NotLimitError(f"not a nonzero limit ordinal: {lam}")
    head, (exponent, coefficient) = lam.terms[:-1], lam.terms[-1]
    if coefficient > 1:
        head = head + ((exponent, coefficient - 1),)
    if exponent.is_successor:
        tail: tuple[tuple[Ordinal, int], ...] = ((exponent.pred(), n + 1),)
    else:
        tail = ((fundamental_seq(exponent, n), 1),)
    return Ordinal._from_normal(head + tail)


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))
# The finite ordinals 0..255, one object each, as CPython shares its small
# ints.  Ordinals enter the layer through Ordinal.from_int and the parser,
# which hand these out, so the small naturals that fill exponents and
# census ranks are held once and pass the order's identity test.  Values
# the operations derive are built new: a realized tree's pickle bytes
# depend on which of its ordinals are one object.
_FINITE = (ZERO, ONE) + tuple(Ordinal._from_normal(((ZERO, n),)) for n in range(2, 256))


# Deepest exponent nesting the parser accepts.  Comparison, formatting and
# the parser itself recurse once per level, so the input must not set the
# recursion depth.
MAX_EXPONENT_NESTING = 100

# One token per match: a run of ASCII digits or any other single
# non-whitespace character.  ASCII only: str.isdigit also passes digits that
# int refuses, such as "\u00b2".  re's \s is the whitespace of str.isspace.
_TOKEN = re.compile(r"\s*([0-9]+|\S)")
_DIGITS = frozenset("0123456789")


class _Parser:
    """Recursive descent over the tokens of one text, scanned once.

    The token list ends with "", which marks the end of input.  Text
    positions are worked out only for an error.
    """

    def __init__(self, text: str, strict: bool) -> None:
        self.text = text
        self.strict = strict
        self.tokens = _TOKEN.findall(text)
        self.tokens.append("")
        self.nesting = 0

    def _error(self, message: str, i: int, offset: int = 0, kind: type = OrdinalParseError) -> NoReturn:
        """Raise at offset characters into token i, or at the end of input."""
        position = len(self.text)
        for k, match in enumerate(_TOKEN.finditer(self.text)):
            if k == i:
                position = match.start(1) + offset
                break
        raise kind(message, position)

    def _nat(self, i: int) -> int:
        token = self.tokens[i]
        if token[:1] not in _DIGITS:
            self._error("expected a number", i)
        try:
            return int(token)
        except ValueError:  # longer than Python converts to an int
            self._error("number too long", i, len(token))

    def _term(self, i: int) -> tuple[Ordinal, int, int]:
        """The exponent and coefficient of the term at token i, and the next token."""
        tokens = self.tokens
        token = tokens[i]
        if token == "w":
            i += 1
            exponent = ONE
            if tokens[i] == "^":
                i += 1
                if tokens[i] != "(":
                    self._error("expected '('", i)
                if self.nesting == MAX_EXPONENT_NESTING:
                    self._error(f"exponents nested deeper than {MAX_EXPONENT_NESTING}", i, 1)
                self.nesting += 1
                exponent, i = self._expr(i + 1)
                self.nesting -= 1
                if tokens[i] != ")":
                    self._error("expected ')'", i)
                i += 1
            if tokens[i] != "*":
                return exponent, 1, i
            return exponent, self._nat(i + 1), i + 2
        if token[:1] in _DIGITS:
            return ZERO, self._nat(i), i + 1
        self._error("expected 'w' or a number", i)

    def _expr(self, i: int) -> tuple[Ordinal, int]:
        """The sum of terms from token i, and the token after it."""
        tokens = self.tokens
        start = i
        exponent, coefficient, i = self._term(i)
        terms = [(exponent, coefficient)]
        # the first term that keeps the list from normal form: (token, why)
        fault = None if coefficient else (start, "zero coefficient")
        while tokens[i] == "+":
            start = i + 1
            previous = exponent
            exponent, coefficient, i = self._term(start)
            terms.append((exponent, coefficient))
            if fault is None:
                if not coefficient:
                    fault = (start, "zero coefficient")
                elif _order(exponent.terms, previous.terms) >= 0:
                    fault = (start, "terms not strictly decreasing")
        if fault is None:
            if len(terms) == 1 and not exponent.terms:
                return Ordinal.from_int(coefficient), i
            return Ordinal._from_normal(tuple(terms)), i
        if len(terms) == 1 and tokens[start] != "w":  # the number 0
            return ZERO, i
        if self.strict:
            self._error(fault[1], fault[0], kind=NotCanonicalError)
        total = ZERO
        for exponent, coefficient in terms:
            if coefficient:
                total = add(total, Ordinal._from_normal(((exponent, coefficient),)))
        return (Ordinal.from_int(int(total)) if total.is_finite else total), i

    def parse(self) -> Ordinal:
        value, i = self._expr(0)
        if self.tokens[i]:
            self._error("unexpected trailing input", i)
        return value


def parse_ordinal(text: str, strict: bool = False) -> Ordinal:
    """Parse ordinal expression text.

    The default mode normalizes arbitrary sums of terms (``w+w`` becomes
    ``w*2``); strict mode instead rejects anything whose term list is not
    already in normal form.
    """
    if not isinstance(text, str):
        raise TypeError("expected a string")
    return _Parser(text, strict).parse()


def _parse_natural(text: str) -> int | None:
    """The grammar's natural number, with whitespace around it allowed, or
    None for any other text and for a number longer than int reads."""
    tokens = _TOKEN.findall(text)
    if len(tokens) != 1 or tokens[0][0] not in _DIGITS:
        return None
    try:
        return int(tokens[0])
    except ValueError:
        return None


def format_ordinal(a: Ordinal | int) -> str:
    """Canonical text for an ordinal; parses back to the same value."""
    a = _require(a)
    if not a.terms:
        return "0"
    parts = []
    try:
        for exponent, coefficient in a.terms:
            if exponent.is_zero:
                parts.append(str(coefficient))
                continue
            base = "w" if exponent == ONE else f"w^({format_ordinal(exponent)})"
            parts.append(base if coefficient == 1 else f"{base}*{coefficient}")
    except ValueError:  # a coefficient longer than Python converts to text
        raise PrintBudgetError() from None
    return "+".join(parts)
