"""Reference census, written the way it was before pairs had slots.

`cbkit.space.census` builds each rank once, straight from its normal
form, then that rank's pairs in one comprehension.  `census` here builds
each rank through `Ordinal.from_int`, which checks its argument, and
extends the list rank by rank.  The differential test requires the two
to agree on size, order, values and errors.
"""

from __future__ import annotations

from cbkit.ordinal import Ordinal, _require, _require_natural
from cbkit.space import EMPTY_CLASS, CbChar, CensusBudgetError


def census(
    rank_bound: Ordinal | int,
    count_bound: int,
    *,
    max_ranks: int | None = None,
    size_cap: int = 100_000,
) -> list[CbChar]:
    """All classes with rank below rank_bound and count up to count_bound."""
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
    for r in range(n_ranks):
        rank = Ordinal.from_int(r)
        out.extend([CbChar._from_normal(rank, c) for c in range(1, count_bound + 1)])
    return out
