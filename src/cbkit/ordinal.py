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

import sys
from dataclasses import dataclass
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


@dataclass(frozen=True, eq=False, repr=False)
class Ordinal:
    """A countable ordinal below epsilon-zero, in Cantor normal form."""

    terms: tuple[tuple["Ordinal", int], ...] = ()

    def __post_init__(self) -> None:
        prev: Ordinal | None = None
        for term in self.terms:
            if not (isinstance(term, tuple) and len(term) == 2):
                raise TypeError("terms must be (exponent, coefficient) pairs")
            exponent, coefficient = term
            if not isinstance(exponent, Ordinal):
                raise TypeError("exponents must be Ordinal values")
            _require_natural(coefficient, "coefficient", 1)
            if prev is not None and cmp(exponent, prev) >= 0:
                raise ValueError("exponents must be strictly decreasing")
            prev = exponent

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        _require_natural(n, "n")
        return cls() if n == 0 else cls(((ZERO, n),))

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
            return Ordinal(head + ((exponent, coefficient - 1),))
        return Ordinal(head)

    def __int__(self) -> int:
        if not self.is_finite:
            raise ValueError(f"not a finite ordinal: {self}")
        return self.terms[0][1] if self.terms else 0

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object):
        coerced = _coerce(other)
        if coerced is None:
            return NotImplemented
        return self.terms == coerced.terms

    def __hash__(self) -> int:
        # a finite ordinal hashes as its int, since the two compare equal
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1 and not terms[0][0].terms:
            return hash(terms[0][1])
        return hash(terms)

    __lt__ = _operator(lambda a, b: cmp(a, b) < 0)
    __le__ = _operator(lambda a, b: cmp(a, b) <= 0)
    __gt__ = _operator(lambda a, b: cmp(a, b) > 0)
    __ge__ = _operator(lambda a, b: cmp(a, b) >= 0)
    __add__ = _operator(lambda a, b: add(a, b))
    __radd__ = _operator(lambda a, b: add(b, a))
    __mul__ = _operator(lambda a, b: mul(a, b))
    __rmul__ = _operator(lambda a, b: mul(b, a))

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f'Ordinal("{format_ordinal(self)}")'


def _coerce(value: object) -> Ordinal | None:
    """The ordinal operand rule: an Ordinal, or a natural number read as one."""
    if isinstance(value, Ordinal):
        return value
    if _is_natural(value):
        return Ordinal.from_int(value)
    return None


def _require(value: object) -> Ordinal:
    coerced = _coerce(value)
    if coerced is None:
        raise TypeError(f"expected an ordinal, got {value!r}")
    return coerced


def cmp(a: Ordinal | int, b: Ordinal | int) -> int:
    """Trichotomy on ordinals: -1, 0 or 1 as a <, = or > b."""
    a, b = _require(a), _require(b)
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = cmp(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


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
        c = cmp(exponent, lead)
        if c > 0:
            head.append((exponent, coefficient))
        elif c == 0:
            head.append((lead, coefficient + b.terms[0][1]))
            merged = True
            break
        else:
            break
    rest = b.terms[1:] if merged else b.terms
    return Ordinal(tuple(head) + rest)


def mul(a: Ordinal | int, b: Ordinal | int) -> Ordinal:
    """Ordinal product a * b, distributed over the normal form of b."""
    a, b = _require(a), _require(b)
    if not a.terms or not b.terms:
        return ZERO
    lead_exp, lead_coeff = a.terms[0]
    total = ZERO
    for exponent, coefficient in b.terms:
        if exponent.is_zero:
            # finite right factor scales only the leading term of a
            piece = Ordinal(((lead_exp, lead_coeff * coefficient),) + a.terms[1:])
        else:
            piece = Ordinal(((add(lead_exp, exponent), coefficient),))
        total = add(total, piece)
    return total


def omega_pow(a: Ordinal | int) -> Ordinal:
    """w raised to the ordinal a."""
    return Ordinal(((_require(a), 1),))


def left_sub(b: Ordinal | int, a: Ordinal | int) -> Ordinal:
    """The unique g with b + g = a, defined when b <= a."""
    b, a = _require(b), _require(a)
    i = 0
    while i < len(b.terms) and i < len(a.terms):
        (be, bc), (ae, ac) = b.terms[i], a.terms[i]
        c = cmp(be, ae)
        if c > 0:
            raise SubtractionUndefinedError(f"{b} > {a}")
        if c < 0:
            return Ordinal(a.terms[i:])
        if bc < ac:
            return Ordinal(((ae, ac - bc),) + a.terms[i + 1 :])
        if bc > ac:
            raise SubtractionUndefinedError(f"{b} > {a}")
        i += 1
    if i == len(b.terms):
        return Ordinal(a.terms[i:])
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
    return Ordinal(head + tail)


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


# Deepest exponent nesting the parser accepts.  Comparison, formatting and
# the parser itself recurse once per level, so the input must not set the
# recursion depth.
MAX_EXPONENT_NESTING = 100

# ASCII only: str.isdigit also passes digits that int refuses, such as "\u00b2"
_DIGITS = frozenset("0123456789")


class _Parser:
    def __init__(self, text: str, strict: bool) -> None:
        self.text = text
        self.strict = strict
        self.pos = 0
        self.nesting = 0

    def _error(self, message: str) -> NoReturn:
        raise OrdinalParseError(message, self.pos)

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str | None:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def _expect(self, char: str) -> None:
        if self._peek() != char:
            self._error(f"expected {char!r}")
        self.pos += 1

    def _nat(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos == start:
            self._error("expected a number")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # longer than Python converts to an int
            self._error("number too long")

    def _term(self) -> tuple[Ordinal, int, int, bool]:
        self._skip_ws()
        start = self.pos
        ch = self._peek()
        if ch == "w":
            self.pos += 1
            exponent = ONE
            if self._peek() == "^":
                self.pos += 1
                self._expect("(")
                if self.nesting == MAX_EXPONENT_NESTING:
                    self._error(f"exponents nested deeper than {MAX_EXPONENT_NESTING}")
                self.nesting += 1
                exponent = self._expr()
                self.nesting -= 1
                self._expect(")")
            coefficient = 1
            if self._peek() == "*":
                self.pos += 1
                coefficient = self._nat()
            return exponent, coefficient, start, False
        if ch is not None and ch in _DIGITS:
            return ZERO, self._nat(), start, True
        self._error("expected 'w' or a number")

    def _expr(self) -> Ordinal:
        items = [self._term()]
        while self._peek() == "+":
            self.pos += 1
            items.append(self._term())
        if not self.strict:
            total = ZERO
            for exponent, coefficient, _, _ in items:
                if coefficient:
                    total = add(total, Ordinal(((exponent, coefficient),)))
            return total
        if len(items) == 1 and items[0][3] and items[0][1] == 0:
            return ZERO
        prev: Ordinal | None = None
        for exponent, coefficient, position, _ in items:
            if coefficient == 0:
                raise NotCanonicalError("zero coefficient", position)
            if prev is not None and cmp(exponent, prev) >= 0:
                raise NotCanonicalError("terms not strictly decreasing", position)
            prev = exponent
        return Ordinal(tuple((e, c) for e, c, _, _ in items))

    def parse(self) -> Ordinal:
        value = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            self._error("unexpected trailing input")
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
