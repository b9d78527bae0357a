"""Calculus worker: one cbkit process running a seeded op stream in batches.

Usage: calc_worker.py STREAM_FILE TRACE(0|1)

Set-up parses the operand text of every op (outside any timed region)
and prints one `{"ready": N}` line.  Then each stdin line
`batch START SIZE` runs ops START..START+SIZE-1 and answers one JSON
line.  Only the op calls are timed.  After the timer stops, the first
run of a slice checks every result against the laws of acceptance
criteria 4, 5, 7 and 9 and, below w^3, against the triple arithmetic of
tests/cnf_reference.py; later runs of the slice must reproduce those
results exactly.  With TRACE=1 each batch runs a second time through
wrapped functions, and the answer carries that time and its spans.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from cnf_reference import tadd, tcmp, tmul  # noqa: E402
from spans import Tracer  # noqa: E402

from cbkit.ordinal import (  # noqa: E402
    add,
    cmp,
    format_ordinal,
    fundamental_seq,
    left_sub,
    mul,
    parse_ordinal,
)
from cbkit.space import EMPTY_CLASS, CbChar, census, derivative_steps, homeomorphic, union_char  # noqa: E402

# The worker reaches every op through this table; the traced run wraps its entries.
FUNCS = {
    "parse_ordinal": parse_ordinal,
    "format_ordinal": format_ordinal,
    "add": add,
    "mul": mul,
    "cmp": cmp,
    "left_sub": left_sub,
    "fundamental_seq": fundamental_seq,
    "derivative_steps": derivative_steps,
    "union_char": union_char,
    "homeomorphic": homeomorphic,
    "census": census,
}
LAYER = {name: ("space." if name in ("derivative_steps", "union_char", "homeomorphic", "census") else "ordinal.") + name for name in FUNCS}


class Raised:
    """Result slot of an op that raised instead of answering."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other: object) -> bool:
        return False

    __hash__ = None  # type: ignore[assignment]


def prepare(line: str):
    """(function name, args, kwargs, check data) for one stream line."""
    op, *raw = line.split()
    o = parse_ordinal
    if op == "parse":
        return "parse_ordinal", (raw[0],), None, raw[0]
    if op == "format":
        return "format_ordinal", (o(raw[0]),), None, raw[0]
    if op in ("add", "mul"):
        return op, (o(raw[0]), o(raw[1])), None, o(raw[2])
    if op == "cmp":
        return "cmp", (o(raw[0]), o(raw[1])), None, None
    if op == "sub":
        b, d = o(raw[0]), o(raw[1])
        return "left_sub", (b, add(b, d)), None, d
    if op == "fs":
        return "fundamental_seq", (o(raw[0]), int(raw[1])), None, None
    if op == "steps":
        return "derivative_steps", (CbChar(o(raw[0]), int(raw[1])), o(raw[2])), None, o(raw[3])
    if op in ("union", "homeo"):
        s1, s2 = CbChar(o(raw[0]), int(raw[1])), CbChar(o(raw[2]), int(raw[3]))
        return ("union_char" if op == "union" else "homeomorphic"), (s1, s2), None, None
    if op == "census":
        return "census", (o(raw[0]), int(raw[1])), {"max_ranks": int(raw[2])}, None
    raise ValueError(f"unknown op {op!r}")


def run_ops(ops: list, funcs: dict) -> list:
    results = []
    for name, args, kwargs, _ in ops:
        try:
            results.append(funcs[name](*args) if kwargs is None else funcs[name](*args, **kwargs))
        except Exception as exc:  # an op that raises has no answer; the client counts it
            results.append(Raised(exc))
    return results


def _triple(a):
    """(a2, a1, a0) for a < w^3, else None."""
    out = [0, 0, 0]
    for exponent, coefficient in a.terms:
        if not exponent.is_finite or int(exponent) > 2:
            return None
        out[2 - int(exponent)] = coefficient
    return tuple(out)


def check(op, r) -> str | None:
    """Why result r of op breaks a law, or None."""
    name, args, kwargs, extra = op
    if name == "parse_ordinal":
        if format_ordinal(r) != args[0] or parse_ordinal(args[0], strict=True) != r:
            return "parse/format identity"
    elif name == "format_ordinal":
        if r != extra or parse_ordinal(r) != args[0]:
            return "format/parse identity"
    elif name == "add":
        a, b = args
        if add(r, extra) != add(a, add(b, extra)):
            return "associativity"
        if left_sub(a, r) != b:
            return "left_sub inverse"
        ta, tb = _triple(a), _triple(b)
        if ta is not None and tb is not None and _triple(r) != tadd(ta, tb):
            return "add vs triple reference"
    elif name == "mul":
        a, b = args
        if mul(a, add(b, extra)) != add(r, mul(a, extra)):
            return "left distributivity"
        ta, tb = _triple(a), _triple(b)
        if ta is not None and tb is not None:
            try:
                expected = tmul(ta, tb)
            except OverflowError:
                expected = None  # the product reaches w^3
            if _triple(r) != expected:
                return "mul vs triple reference"
    elif name == "cmp":
        a, b = args
        if r not in (-1, 0, 1) or cmp(b, a) != -r or (r == 0) != (a == b):
            return "trichotomy"
        ta, tb = _triple(a), _triple(b)
        if ta is not None and tb is not None and tcmp(ta, tb) != r:
            return "cmp vs triple reference"
    elif name == "left_sub":
        b, total = args
        if add(b, r) != total or r != extra:
            return "left_sub inverse"
    elif name == "fundamental_seq":
        lam, n = args
        if not cmp(r, lam) < 0 < cmp(fundamental_seq(lam, n + 1), r):
            return "fundamental sequence not increasing below its limit"
    elif name == "derivative_steps":
        s, b1 = args
        if derivative_steps(r, extra) != derivative_steps(s, add(b1, extra)):
            return "derivative chain law"
    elif name == "union_char":
        s1, s2 = args
        top = max(s1.rank, s2.rank)
        survivors = derivative_steps(s1, top).count + derivative_steps(s2, top).count
        if r != (CbChar(top, survivors) if survivors else EMPTY_CLASS) or union_char(s2, s1) != r:
            return "stage-wise union law"
    elif name == "homeomorphic":
        s1, s2 = args
        same = format_ordinal(s1.rank) == format_ordinal(s2.rank) and s1.count == s2.count
        if r != same:
            return "homeomorphism is equality of pairs"
    elif name == "census":
        bound, count = args
        ranks = kwargs["max_ranks"] if not bound.is_finite else min(int(bound), kwargs["max_ranks"])
        keys = [(c.rank, c.count) for c in r]
        if (
            len(r) != 1 + ranks * count
            or r[0] != EMPTY_CLASS
            or any(not x < y for x, y in zip(keys, keys[1:]))
            or any(not c.rank < bound for c in r)
        ):
            return "census size and order"
    return None


def main() -> int:
    stream, trace = Path(sys.argv[1]), sys.argv[2] == "1"
    ops, broken = [], []
    for i, line in enumerate(stream.read_text().splitlines()):
        try:
            ops.append(prepare(line))
        except Exception as exc:  # operand text cbkit refuses: the op has no answer
            ops.append(("parse_ordinal", (None,), None, None))
            broken.append([i, f"{type(exc).__name__}: {exc}"])
    tracer = Tracer("calculus")
    traced_funcs = {name: tracer.tally(LAYER[name], fn) for name, fn in FUNCS.items()}
    traced_batch = tracer.span("calculus.batch", run_ops)
    expected: dict[int, list] = {}
    # The worker's own long-lived objects (ops, checked results) are frozen
    # out of the cyclic collector, so full collections inside a timed batch
    # scan only what the ops themselves allocate.
    gc.collect()
    gc.freeze()
    print(json.dumps({"ready": len(ops), "broken": broken}), flush=True)

    for request in sys.stdin:
        words = request.split()
        if words[0] != "batch":
            break
        start, size = int(words[1]), int(words[2])
        batch = ops[start : start + size]
        t0 = time.perf_counter_ns()
        results = run_ops(batch, FUNCS)
        elapsed = time.perf_counter_ns() - t0
        reply: dict = {"ns": elapsed, "traced_ns": None, "trace": None}
        if trace:
            tracer.job = f"batch@{start}"
            t0 = time.perf_counter_ns()
            traced_results = traced_batch(batch, traced_funcs)
            reply["traced_ns"] = time.perf_counter_ns() - t0
            reply["trace"] = tracer.to_obj()
            tracer.spans.clear()
            tracer.aggregates.clear()
        else:
            traced_results = results

        raised = [[start + i, r.text] for i, r in enumerate(results) if isinstance(r, Raised)]
        wrong = []
        if start not in expected:
            for i, (op, r) in enumerate(zip(batch, results)):
                if not isinstance(r, Raised):
                    reason = check(op, r)
                    if reason is not None:
                        wrong.append([start + i, reason])
            expected[start] = results
            gc.collect()
            gc.freeze()
        else:
            wrong += [
                [start + i, "differs from the checked first run"]
                for i, (r, e) in enumerate(zip(results, expected[start]))
                if not isinstance(r, Raised) and r != e
            ]
        wrong += [
            [start + i, "traced run differs"]
            for i, (r, t) in enumerate(zip(results, traced_results))
            if not isinstance(r, Raised) and r != t
        ]
        reply.update(ops=len(batch), raised=raised, wrong=wrong)
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
