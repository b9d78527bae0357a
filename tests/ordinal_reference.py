"""Reference ordinal order and product, written out the long way.

`cbkit.ordinal` compares normal forms with one walk over their terms,
which skips exponents that are the same object.  Two references stand
for that order.  `cmp` is the walk written out: the first term that
differs decides, a larger exponent before a larger coefficient,
exponents compared by the same walk one level down, and a proper prefix
is smaller.  `key` turns an ordinal into nested plain tuples whose
built-in order is the same, and runs no `Ordinal` method.

`cbkit.ordinal.mul` splices the pieces of a product into one normal
form.  `mul` here sums the same pieces with `add`, which works their
order out again.

`cbkit.ordinal.parse_ordinal` scans its text into tokens once, with one
regular expression, and works out a text position only for an error.
`parse_ordinal` here steps through the text one character at a time,
skipping whitespace by `str.isspace` and reading digits from an explicit
ASCII set.  The differential tests require each pair to agree.
"""

from __future__ import annotations

from typing import NoReturn

from cbkit.ordinal import (
    MAX_EXPONENT_NESTING,
    ONE,
    ZERO,
    NotCanonicalError,
    Ordinal,
    OrdinalParseError,
    add,
)


def cmp(a: Ordinal, b: Ordinal) -> int:
    """-1, 0 or 1 as a <, = or > b."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = cmp(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


def key(a: Ordinal) -> tuple:
    """a as nested plain tuples: one (exponent key, coefficient) pair per
    term, so tuple order is the order of the ordinals."""
    return tuple((key(e), c) for e, c in a.terms)


def mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """a * b as the sum of a * w^(e)*c over the terms of b."""
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


def strictly_decreasing(exponents: list[Ordinal]) -> bool:
    return all(cmp(e, f) > 0 for e, f in zip(exponents, exponents[1:]))


class ParentHash:
    """A copy of an ordinal hashed by the rule Ordinal.__hash__ stands for.

    The copy holds no Ordinal, so its hash never reaches the memo under
    test: a finite ordinal hashes as its int, any other as its terms.
    """

    def __init__(self, a: Ordinal) -> None:
        self.terms = tuple((ParentHash(e), c) for e, c in a.terms)

    def __hash__(self) -> int:
        terms = self.terms
        if not terms:
            return 0
        if len(terms) == 1 and not terms[0][0].terms:
            return hash(terms[0][1])
        return hash(terms)


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
            if prev is not None and exponent.terms >= prev.terms:
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
