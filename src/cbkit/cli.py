"""Command line surface.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 domain
error (undefined subtraction, budget exhaustion and the like).  Setting
CBKIT_STRICT=1 makes every ordinal parse reject non-canonical input.
Outputs are deterministic; small values print as compact JSON, trees and
reports indented.

`run` is the process entry of `cbkit` and `python -m cbkit`: it freezes
the import-time heap out of the cyclic garbage collector, then calls
`main`.  `main(argv)` runs one command, with automatic collection paused
for its length, and is what in-process callers use.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .ordinal import (
    NotLimitError,
    OrdinalParseError,
    PrintBudgetError,
    SubtractionUndefinedError,
    _parse_natural,
    add,
    cmp,
    format_ordinal,
    fundamental_seq,
    left_sub,
    mul,
    parse_ordinal,
)
from .space import (
    AmbientDescriptor,
    CbChar,
    CensusBudgetError,
    census,
    char_from_obj,
    char_to_obj,
    class_count,
    derivative,
    derivative_steps,
    homeomorphic,
    union_char,
)
from .realize import (
    DEFAULT_CONFIG,
    SCHEDULE_BASES,
    NodeBudgetError,
    RealizationConfig,
    TreeInvariantError,
    _SIDE_SIGNS,
    _check_budgets,
    _check_node_budget,
    _outputs,
    _read_json,
    _rooted,
    _write_forest,
    load_forest,
    materialize_forest,
    parse_config_file,
    realize_multi,
    tree_to_obj,
    validate_tree,
)
from .oracle import (
    GeometryReport,
    ScaleBudgetError,
    AuditError,
    audit_char,
    char_by_pruning,
    geometry_check,
    restriction_check,
)

_DOMAIN_LABELS = {
    SubtractionUndefinedError: "Undefined",
    NotLimitError: "NotLimit",
    ScaleBudgetError: "ScaleBudgetExceeded",
    CensusBudgetError: "BudgetExceeded",
    NodeBudgetError: "NodeBudgetExceeded",
    PrintBudgetError: "PrintBudgetExceeded",
}

# Domain errors end a run with exit 3, and these, bad input, with exit 2
_HANDLED = (*_DOMAIN_LABELS, ValueError, KeyError, TypeError, OSError)


def _fail(exc: Exception, where: str = "") -> tuple[int, str]:
    """Print a handled exception's stderr line; return its exit code and report failure."""
    label = next((lbl for t, lbl in _DOMAIN_LABELS.items() if isinstance(exc, t)), None)
    if label is None:
        print(f"cbkit: {where}error: {exc}", file=sys.stderr)
        return 2, f"input: {exc}"
    print(f"cbkit: {where}{label}: {exc}", file=sys.stderr)
    return 3, f"budget: {label}: {exc}"


def _compact(obj: object) -> str:
    try:
        return json.dumps(obj, separators=(",", ":"))
    except ValueError:  # an int longer than Python converts to text
        raise PrintBudgetError() from None


def _strict() -> bool:
    return os.environ.get("CBKIT_STRICT") == "1"


def _load_char(path: str, strict: bool) -> CbChar:
    return char_from_obj(_read_json(Path(path).read_text()), strict=strict)


def _cmd_ord(args: argparse.Namespace) -> int:
    strict = _strict()
    a = parse_ordinal(args.lhs, strict=strict)
    if args.op == "fs":
        n = _parse_natural(args.rhs)
        if n is None:
            raise OrdinalParseError(f"fs index must be a natural number: {args.rhs!r}", 0)
        print(format_ordinal(fundamental_seq(a, n)))
        return 0
    b = parse_ordinal(args.rhs, strict=strict)
    if args.op == "add":
        print(format_ordinal(add(a, b)))
    elif args.op == "mul":
        print(format_ordinal(mul(a, b)))
    elif args.op == "sub":
        print(format_ordinal(left_sub(a, b)))
    else:
        print({-1: "Less", 0: "Equal", 1: "Greater"}[cmp(a, b)])
    return 0


def _cmd_space(args: argparse.Namespace) -> int:
    strict = _strict()
    if args.action in ("derive", "steps"):
        s = CbChar(parse_ordinal(args.rank, strict=strict), args.count)
        if args.action == "derive":
            result = derivative(s)
        else:
            result = derivative_steps(s, parse_ordinal(args.beta, strict=strict))
        print(_compact(char_to_obj(result)))
        return 0
    s1 = _load_char(args.first, strict)
    s2 = _load_char(args.second, strict)
    if args.action == "union":
        print(_compact(char_to_obj(union_char(s1, s2))))
    else:
        print("true" if homeomorphic(s1, s2) else "false")
    return 0


def _config_from_args(args: argparse.Namespace) -> RealizationConfig:
    cfg = parse_config_file(args.config) if args.config else DEFAULT_CONFIG
    given = {f.name: getattr(args, f.name) for f in fields(RealizationConfig)}
    return replace(cfg, **{k: v for k, v in given.items() if v is not None})


def _cmd_realize(args: argparse.Namespace) -> int:
    strict = _strict()
    alpha = parse_ordinal(args.rank, strict=strict)
    cfg = _config_from_args(args)
    depth = args.mat_depth if args.mat_depth is not None else max(1, cfg.max_depth)
    width = args.width if args.width is not None else cfg.children_per_node
    # bad input ends the run before any file is opened
    _check_budgets(depth, width)
    _check_node_budget(alpha, args.p, cfg)
    points = args.points
    # a device or FIFO --out, such as /dev/null, gets no points beside it
    if points is None and args.out is not None and (os.path.isfile(args.out) or not os.path.exists(args.out)):
        points = args.out + ".points.csv"
    with _outputs(args.out, points) as (tree_file, points_file):
        forest = realize_multi(alpha, args.p, cfg)
        write = sys.stdout.write if tree_file is None else tree_file.write
        # the tree objects die before the points are materialized
        _write_forest([tree_to_obj(t) for t in forest], write)
        if points_file is not None:
            points_file.write(materialize_forest(forest, depth, width).to_csv())
    return 0


def _verify_file(path: Path, strict: bool) -> dict:
    forest = load_forest(path, strict=strict)
    failures: list[str] = []

    try:
        validate_tree(forest)
    except TreeInvariantError as exc:
        failures.append(f"structure: {exc}")

    char_expected = None
    try:
        char_expected = audit_char(forest, exact=True)
    except AuditError as exc:
        failures.append(f"audit: {exc}")

    geometry = geometry_check(forest)
    if not geometry.ok:
        failures.append("geometry: separation claims violated")

    char_pruned = None
    if all(t.rank.is_finite for t in forest):
        try:
            char_pruned = char_by_pruning(forest)
        except TreeInvariantError as exc:
            failures.append(f"pruning: {exc}")

    if not failures:
        # restriction identity only once the tree is structurally sound
        for root, tree in _rooted(forest):
            for n in range(min(4, len(tree.children))):
                for beta in range(4):
                    if not restriction_check(tree, n, beta):
                        failures.append(f"restriction: annulus {n}, stage {beta} at {root}")

    return _report(path, failures, geometry, char_expected, char_pruned)


def _report(path: Path, failures: list[str], geometry: GeometryReport | None = None,
            char_expected: CbChar | None = None, char_pruned: CbChar | None = None) -> dict:
    """A verify report; a file no oracle could finish has only its failure."""
    return {
        "tree": str(path),
        "geometry": None if geometry is None else geometry.to_obj(),
        "char_expected": None if char_expected is None else char_to_obj(char_expected),
        "char_pruned": None if char_pruned is None else char_to_obj(char_pruned),
        "ok": not failures,
        "failures": failures,
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    strict = _strict()
    # the flags are checked as realize checks them, then ignored
    _config_from_args(args)
    target = Path(args.target)
    if not target.is_dir():
        payload = _verify_file(target, strict)
        code = 0 if payload["ok"] else 1
    else:
        # an exhausted budget or bad input fails its file only; the others
        # still report, and the exit code is the worst over the files
        payload, code = [], 0
        for f in sorted(target.glob("*.json")):
            try:
                if not f.is_file():
                    # a FIFO would block the read until a writer came
                    raise OSError("not a regular file")
                report = _verify_file(f, strict)
                file_code = 0 if report["ok"] else 1
            except _HANDLED as exc:
                file_code, failure = _fail(exc, f"{f}: ")
                report = _report(f, [failure])
            payload.append(report)
            code = max(code, file_code)
    # opened only now, so a report that names the target is read first
    with _outputs(args.report) as (report_file,):
        (sys.stdout if report_file is None else report_file).write(json.dumps(payload, indent=2) + "\n")
    return code


def _cmd_census(args: argparse.Namespace) -> int:
    bound = parse_ordinal(args.rank_bound, strict=_strict())
    chars = census(bound, args.count_bound, max_ranks=args.max_ranks, size_cap=args.size_cap)
    print(json.dumps([char_to_obj(c) for c in chars], indent=2))
    return 0


_AMBIENT_KINDS = {"finite": "finite", "countable": "countably_infinite", "uncountable": "uncountable"}


def _cmd_classcount(args: argparse.Namespace) -> int:
    ambient = AmbientDescriptor(_AMBIENT_KINDS[args.kind], args.n)
    print(_compact(class_count(ambient).to_obj()))
    return 0


def _add_config_flags(sub: argparse._ActionsContainer) -> None:
    sub.add_argument("--config", help="key = value realization config file")
    # dest is the RealizationConfig field each flag sets
    sub.add_argument(
        "-m", "--children", dest="children_per_node", metavar="CHILDREN", type=int,
        help="materialized children per node",
    )
    sub.add_argument("--depth", dest="max_depth", metavar="DEPTH", type=int, help="realization depth budget")
    sub.add_argument("--schedule", dest="radius_schedule", choices=tuple(SCHEDULE_BASES), help="radius schedule")
    sub.add_argument("--side", dest="side_rule", choices=tuple(_SIDE_SIGNS), help="child placement side")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbkit",
        description="Derivatives, characteristics and rational-line realizations "
        "of compact countable spaces.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_ord = subs.add_parser("ord", help="ordinal arithmetic on normal forms")
    p_ord.add_argument("op", choices=("add", "mul", "cmp", "sub", "fs"))
    p_ord.add_argument("lhs")
    p_ord.add_argument("rhs")
    p_ord.set_defaults(handler=_cmd_ord)

    p_space = subs.add_parser("space", help="characteristic calculus")
    space_subs = p_space.add_subparsers(dest="action", required=True)
    for action in ("derive", "steps"):
        sp = space_subs.add_parser(action)
        sp.add_argument("--rank", required=True)
        sp.add_argument("--count", type=int, required=True)
        if action == "steps":
            sp.add_argument("--beta", required=True)
        sp.set_defaults(handler=_cmd_space, action=action)
    for action in ("union", "homeo"):
        sp = space_subs.add_parser(action)
        sp.add_argument("first")
        sp.add_argument("second")
        sp.set_defaults(handler=_cmd_space, action=action)

    p_realize = subs.add_parser("realize", help="build cluster trees for a characteristic")
    p_realize.add_argument("rank")
    p_realize.add_argument("-p", type=int, default=1, help="number of clusters")
    p_realize.add_argument("--out", help="tree JSON path (stdout when omitted)")
    p_realize.add_argument("--points", help="point CSV path")
    p_realize.add_argument("--mat-depth", type=int, help="materialization depth budget")
    p_realize.add_argument("--width", type=int, help="materialization width budget")
    _add_config_flags(p_realize)
    p_realize.set_defaults(handler=_cmd_realize)

    p_verify = subs.add_parser("verify", help="audit tree files against all oracles")
    p_verify.add_argument("target", help="tree JSON file, or directory of them")
    p_verify.add_argument("--report", help="report JSON path (stdout when omitted)")
    _add_config_flags(p_verify.add_argument_group(
        "realization flags",
        "checked as realize checks them, then ignored: verify reads every tree as the file gives it",
    ))
    p_verify.set_defaults(handler=_cmd_verify)

    p_census = subs.add_parser("census", help="enumerate classes under bounds")
    p_census.add_argument("rank_bound")
    p_census.add_argument("count_bound", type=int)
    p_census.add_argument("--max-ranks", type=int, default=None)
    p_census.add_argument("--size-cap", type=int, default=100_000)
    p_census.set_defaults(handler=_cmd_census)

    p_count = subs.add_parser("classcount", help="number of classes over an ambient space")
    p_count.add_argument("kind", choices=tuple(_AMBIENT_KINDS))
    p_count.add_argument("n", type=int, nargs="?")
    p_count.set_defaults(handler=_cmd_classcount)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Automatic garbage collection is paused for the command and restored on
    every way out: the command's values hold no reference cycles, so
    collections would only walk them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        try:
            return args.handler(args)
        except _HANDLED as exc:
            return _fail(exc)[0]
    finally:
        if enabled:
            gc.enable()


def run() -> int:
    """The process entry of `cbkit` and `python -m cbkit`.

    The objects imported so far live until the process ends, so they are
    frozen out of every collection, the one at interpreter exit included,
    which gc.disable() does not skip.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
