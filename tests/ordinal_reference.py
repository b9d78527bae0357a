"""Reference ordinal order: the term-by-term walk over normal forms.

`cbkit.ordinal` compares normal forms as Python tuples of their terms.
This is the walk that order stands for, written out: the first term
that differs decides, a larger exponent before a larger coefficient,
exponents compared by the same walk one level down, and a proper prefix
is smaller.  The differential tests require the two to agree.
"""

from __future__ import annotations

from cbkit.ordinal import Ordinal


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


def strictly_decreasing(exponents: list[Ordinal]) -> bool:
    return all(cmp(e, f) > 0 for e, f in zip(exponents, exponents[1:]))
