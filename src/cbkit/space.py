"""Homeomorphism classes of compact countable Hausdorff spaces.

Every such nonempty space is determined up to homeomorphism by a pair
(rank, count): the least derivation stage at which the iterated derived
set becomes finite, and the number of points left at that stage.  The
empty space is (0, 0).  This module does the bookkeeping on those pairs:
single and transfinite derivation steps, disjoint unions, enumeration of
classes under a bound, and cardinality of the class inventory available
inside a given ambient space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ordinal import ONE, ZERO, Ordinal, _field_state, _require, _require_natural, cmp, format_ordinal, left_sub, parse_ordinal

__all__ = [
    "CbChar",
    "EMPTY_CLASS",
    "Cardinality",
    "AmbientDescriptor",
    "CensusBudgetError",
    "derivative",
    "derivative_steps",
    "union_char",
    "homeomorphic",
    "census",
    "class_count",
    "char_to_obj",
    "char_from_obj",
]


class CensusBudgetError(RuntimeError):
    """The requested enumeration does not fit in the configured budget."""


@_field_state
@dataclass(frozen=True)
class CbChar:
    """Characteristic pair of a compact countable space."""

    # no instance dict: the fields are slots, and pairs stay weakly referable
    __slots__ = ("rank", "count", "__weakref__")

    rank: Ordinal
    count: int

    def __init__(self, rank: Ordinal, count: int) -> None:
        if not isinstance(rank, Ordinal):
            raise TypeError("rank must be an Ordinal")
        _require_natural(count, "count")
        if count == 0 and not rank.is_zero:
            raise ValueError("only the empty class may have count 0")
        _set_rank(self, rank)
        _set_count(self, count)

    @classmethod
    def _from_normal(cls, rank: Ordinal, count: int) -> "CbChar":
        """A pair the module derived from valid pairs, built without the checks."""
        self = object.__new__(cls)
        _set_rank(self, rank)
        _set_count(self, count)
        return self

    def __str__(self) -> str:
        return f"({format_ordinal(self.rank)}, {self.count})"


# Writers of the two slots, which the frozen __setattr__ refuses.
_set_rank = CbChar.rank.__set__
_set_count = CbChar.count.__set__

EMPTY_CLASS = CbChar(ZERO, 0)


def _require_chars(*values: object) -> None:
    """The pair argument rule: a CbChar, so that the checks it passed hold
    for the pairs derived from it."""
    for value in values:
        if not isinstance(value, CbChar):
            raise TypeError("expected CbChar values")


def derivative_steps(s: CbChar, beta: Ordinal | int) -> CbChar:
    """Class of the beta-th iterated derived set of a space of class s."""
    _require_chars(s)
    beta = _require(beta)
    if beta.is_zero:
        return s
    c = cmp(beta, s.rank)
    if c < 0:
        return CbChar._from_normal(left_sub(beta, s.rank), s.count)
    if c == 0:
        return CbChar._from_normal(ZERO, s.count)
    return EMPTY_CLASS


def derivative(s: CbChar) -> CbChar:
    """Class of the derived set (one derivation step)."""
    return derivative_steps(s, ONE)


def union_char(s1: CbChar, s2: CbChar) -> CbChar:
    """Class of a disjoint union: the larger rank wins, ties add counts."""
    _require_chars(s1, s2)
    c = cmp(s1.rank, s2.rank)
    lead = s2.rank if c < 0 else s1.rank
    count = (s1.count if s1.rank == lead else 0) + (s2.count if s2.rank == lead else 0)
    if count == 0:
        return EMPTY_CLASS
    return CbChar._from_normal(lead, count)


def homeomorphic(s1: CbChar, s2: CbChar) -> bool:
    """Spaces of these classes are homeomorphic iff the pairs agree."""
    _require_chars(s1, s2)
    return s1 == s2


def census(
    rank_bound: Ordinal | int,
    count_bound: int,
    *,
    max_ranks: int | None = None,
    size_cap: int = 100_000,
) -> list[CbChar]:
    """All classes with rank below rank_bound and count up to count_bound.

    The result is sorted by (rank, count) and, whenever rank_bound >= 1,
    starts with the empty class.  Ranks are drawn from the increasing
    enumeration 0, 1, 2, ...; an infinite rank_bound therefore needs an
    explicit max_ranks truncation.  Enumerations larger than size_cap
    raise CensusBudgetError.
    """
    rank_bound = _require(rank_bound)
    _require_natural(count_bound, "count_bound")
    if max_ranks is not None:
        _require_natural(max_ranks, "max_ranks")
    _require_natural(size_cap, "size_cap")
    if rank_bound.is_zero:
        return []
    if rank_bound.is_finite:
        n_ranks = int(rank_bound)
    elif max_ranks is None:
        raise CensusBudgetError(
            "infinite rank bound: pass max_ranks to truncate the enumeration"
        )
    else:
        n_ranks = max_ranks
    if max_ranks is not None:
        n_ranks = min(n_ranks, max_ranks)
    total = 1 + n_ranks * count_bound
    if total > size_cap:
        raise CensusBudgetError(f"census of {total} classes exceeds cap {size_cap}")
    out = [EMPTY_CLASS]
    counts = range(1, count_bound + 1)
    for r in range(n_ranks):
        rank = Ordinal._from_normal(((ZERO, r),) if r else ())
        # each pair built in place, as _from_normal builds it: a call per
        # pair took about a fifth of the census's time
        for c in counts:
            pair = object.__new__(CbChar)
            _set_rank(pair, rank)
            _set_count(pair, c)
            out.append(pair)
    return out


@dataclass(frozen=True)
class Cardinality:
    """Finite number, aleph-null, or aleph-one."""

    kind: str
    n: int | None = None

    _KINDS = ("finite", "aleph0", "aleph1")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown cardinality kind: {self.kind!r}")
        if self.kind == "finite":
            _require_natural(self.n, "n")
        elif self.n is not None:
            raise ValueError("only finite cardinalities carry a number")

    @classmethod
    def finite(cls, n: int) -> "Cardinality":
        return cls("finite", n)

    @classmethod
    def aleph0(cls) -> "Cardinality":
        return cls("aleph0")

    @classmethod
    def aleph1(cls) -> "Cardinality":
        return cls("aleph1")

    def to_obj(self) -> dict:
        if self.kind == "finite":
            return {"kind": "finite", "n": self.n}
        return {"kind": self.kind}

    @classmethod
    def from_obj(cls, obj: dict) -> "Cardinality":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("cardinality object needs a 'kind' field")
        if obj["kind"] == "finite":
            return cls.finite(obj.get("n"))
        return cls(obj["kind"])


@dataclass(frozen=True)
class AmbientDescriptor:
    """Size class of the Polish space the realizations would live in."""

    kind: str
    size: int | None = None

    _KINDS = ("finite", "countably_infinite", "uncountable")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown ambient kind: {self.kind!r}")
        if self.kind == "finite":
            _require_natural(self.size, "size")
        elif self.size is not None:
            raise ValueError("only finite ambients carry a size")

    @classmethod
    def finite(cls, n: int) -> "AmbientDescriptor":
        return cls("finite", n)

    @classmethod
    def countably_infinite(cls) -> "AmbientDescriptor":
        return cls("countably_infinite")

    @classmethod
    def uncountable(cls) -> "AmbientDescriptor":
        return cls("uncountable")


def class_count(ambient: AmbientDescriptor) -> Cardinality:
    """How many homeomorphism classes of compact subsets the ambient admits.

    A finite space with n points carries n + 1 classes (one per subset
    size); a countably infinite Polish space carries countably many; an
    uncountable one exactly aleph-one.
    """
    if not isinstance(ambient, AmbientDescriptor):
        raise TypeError("expected an AmbientDescriptor")
    if ambient.kind == "finite":
        return Cardinality.finite(ambient.size + 1)
    if ambient.kind == "countably_infinite":
        return Cardinality.aleph0()
    return Cardinality.aleph1()


def char_to_obj(s: CbChar) -> dict:
    return {"rank": format_ordinal(s.rank), "count": s.count}


def char_from_obj(obj: dict, strict: bool = False) -> CbChar:
    if not isinstance(obj, dict):
        raise ValueError("characteristic must be a JSON object")
    missing = {"rank", "count"} - obj.keys()
    if missing:
        raise ValueError(f"characteristic object lacks {sorted(missing)}")
    rank = obj["rank"]
    if not isinstance(rank, str):
        raise ValueError("rank must be ordinal text")
    return CbChar(parse_ordinal(rank, strict=strict), obj["count"])
