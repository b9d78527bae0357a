"""Reference ordinal order and product, written out the long way.

`cbkit.ordinal` compares normal forms as Python tuples of their terms.
`cmp` is the walk that order stands for, written out: the first term
that differs decides, a larger exponent before a larger coefficient,
exponents compared by the same walk one level down, and a proper prefix
is smaller.

`cbkit.ordinal.mul` splices the pieces of a product into one normal
form.  `mul` here sums the same pieces with `add`, which works their
order out again.  The differential tests require each pair to agree.
"""

from __future__ import annotations

from cbkit.ordinal import ZERO, Ordinal, add


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
