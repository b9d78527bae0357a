"""Command line surface.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 domain
error (undefined subtraction, budget exhaustion and the like).  Setting
CBKIT_STRICT=1 makes every ordinal parse reject non-canonical input.
Outputs are deterministic; small values print as compact JSON, trees and
reports indented.
"""

from __future__ import annotations

import argparse
import contextlib
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
    _is_natural,
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
    _read_json,
    _write_forest,
    load_forest,
    materialize_forest,
    parse_config_file,
    realize_multi,
    tree_to_obj,
    validate_tree,
)
from .oracle import (
    InfiniteRankError,
    ScaleBudgetError,
    StageBudgetError,
    AuditError,
    audit_char,
    char_by_pruning,
    geometry_check,
    restriction_check,
)

_DOMAIN_LABELS = {
    SubtractionUndefinedError: "Undefined",
    NotLimitError: "NotLimit",
    InfiniteRankError: "InfiniteRank",
    StageBudgetError: "StageBudgetExceeded",
    ScaleBudgetError: "ScaleBudgetExceeded",
    CensusBudgetError: "BudgetExceeded",
    NodeBudgetError: "NodeBudgetExceeded",
    PrintBudgetError: "PrintBudgetExceeded",
}


def _domain_line(exc: Exception) -> str:
    """The stderr line of a domain error or an exhausted budget."""
    label = next(lbl for t, lbl in _DOMAIN_LABELS.items() if isinstance(exc, t))
    return f"{label}: {exc}"


def _compact(obj: object) -> str:
    try:
        return json.dumps(obj, separators=(",", ":"))
    except ValueError:  # an int longer than Python converts to text
        raise PrintBudgetError() from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _strict() -> bool:
    return os.environ.get("CBKIT_STRICT") == "1"


def _load_char(path: str, strict: bool) -> CbChar:
    return char_from_obj(_read_json(Path(path).read_text()), strict=strict)


def _cmd_ord(args: argparse.Namespace) -> int:
    strict = _strict()
    a = parse_ordinal(args.lhs, strict=strict)
    if args.op == "fs":
        try:
            n = int(args.rhs)
        except ValueError:
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


@contextlib.contextmanager
def _outputs(*paths: str | None):
    """Open every given path for writing, all before the first byte is written.

    Yields one file per path, None where the path is None.  If an open or
    the run fails, the files this call created are removed again.
    """
    created = [path for path in paths if path is not None and not os.path.exists(path)]
    with contextlib.ExitStack() as stack:
        try:
            yield [
                None if path is None else stack.enter_context(open(path, "w", encoding="ascii"))
                for path in paths
            ]
        except BaseException:
            stack.close()
            for path in created:
                with contextlib.suppress(OSError):
                    os.remove(path)
            raise


def _cmd_realize(args: argparse.Namespace) -> int:
    strict = _strict()
    alpha = parse_ordinal(args.rank, strict=strict)
    cfg = _config_from_args(args)
    if args.out is not None and args.points is not None and args.out == args.points:
        raise ValueError("tree and point outputs must be distinct paths")
    depth = args.mat_depth if args.mat_depth is not None else max(1, cfg.max_depth)
    width = args.width if args.width is not None else cfg.children_per_node
    # bad input ends the run before any file is opened
    _check_budgets(depth, width)
    _check_node_budget(alpha, args.p, cfg)
    points = args.points
    if points is None and args.out is not None:
        points = args.out + ".points.csv"
    with _outputs(args.out, points) as (tree_file, points_file):
        forest = realize_multi(alpha, args.p, cfg)
        write = sys.stdout.write if tree_file is None else tree_file.write
        # the tree objects die before the points are materialized
        _write_forest([tree_to_obj(t) for t in forest], write)
        if points_file is not None:
            points_file.write(materialize_forest(forest, depth, width).to_csv())
    return 0


def _merge_geometry(reports: list) -> dict:
    merged = {
        "ok": all(r.ok for r in reports),
        "annuli": sum(r.annuli for r in reports),
        "claim1_ok": all(r.claim1_ok for r in reports),
        "claim2_ok": all(r.claim2_ok for r in reports),
        "claim3_ok": all(r.claim3_ok for r in reports),
        "counterexample": None,
    }
    for r in reports:
        if r.counterexample is not None:
            merged["counterexample"] = r.counterexample.to_obj()
            break
    return merged


def _verify_file(path: Path, cfg: RealizationConfig, strict: bool, stage_cap: int) -> dict:
    forest = load_forest(path, strict=strict)
    failures: list[str] = []

    for i, tree in enumerate(forest):
        try:
            validate_tree(tree, cfg=None, expect_prefix=True)
        except TreeInvariantError as exc:
            failures.append(f"structure[{i}]: {exc}")

    char_expected = None
    try:
        char_expected = audit_char(forest, exact=True)
    except AuditError as exc:
        failures.append(f"audit: {exc}")

    geometry = _merge_geometry([geometry_check(t) for t in forest])
    if not geometry["ok"]:
        failures.append("geometry: separation claims violated")

    char_pruned = None
    if all(t.rank.is_finite for t in forest):
        try:
            char_pruned = char_by_pruning(forest, stage_cap=stage_cap)
        except TreeInvariantError as exc:
            failures.append(f"pruning: {exc}")
        if char_pruned is not None and char_expected is not None and char_pruned != char_expected:
            failures.append(
                f"pruning: characteristic {char_pruned} disagrees with annotations {char_expected}"
            )

    if not failures:
        # restriction identity only once the tree is structurally sound
        for i, tree in enumerate(forest):
            m = len(tree.children)
            for n in range(min(4, m)):
                for beta in range(4):
                    if not restriction_check(tree, n, beta, cfg):
                        failures.append(f"restriction[{i}]: annulus {n}, stage {beta}")

    return {
        "tree": str(path),
        "geometry": geometry,
        "char_expected": None if char_expected is None else char_to_obj(char_expected),
        "char_pruned": None if char_pruned is None else char_to_obj(char_pruned),
        "ok": not failures,
        "failures": failures,
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    if not _is_natural(args.stage_cap, 1):
        raise ValueError("--stage-cap must be >= 1")
    strict = _strict()
    cfg = _config_from_args(args)
    target = Path(args.target)
    if not target.is_dir():
        report = _verify_file(target, cfg, strict, args.stage_cap)
        _emit(json.dumps(report, indent=2) + "\n", args.report)
        return 0 if report["ok"] else 1
    reports = []
    code = 0
    for f in sorted(target.glob("*.json")):
        try:
            report = _verify_file(f, cfg, strict, args.stage_cap)
        except (StageBudgetError, ScaleBudgetError) as exc:
            # an exhausted budget fails this file only; the others still report
            line = _domain_line(exc)
            print(f"cbkit: {line}", file=sys.stderr)
            report = {
                "tree": str(f),
                "geometry": None,
                "char_expected": None,
                "char_pruned": None,
                "ok": False,
                "failures": [f"budget: {line}"],
            }
            code = 3
        reports.append(report)
        if not report["ok"]:
            code = max(code, 1)
    _emit(json.dumps(reports, indent=2) + "\n", args.report)
    return code


def _cmd_census(args: argparse.Namespace) -> int:
    bound = parse_ordinal(args.rank_bound, strict=_strict())
    chars = census(bound, args.count_bound, max_ranks=args.max_ranks, size_cap=args.size_cap)
    print(json.dumps([char_to_obj(c) for c in chars], indent=2))
    return 0


def _cmd_classcount(args: argparse.Namespace) -> int:
    if args.kind == "finite":
        if args.n is None:
            raise ValueError("finite ambient needs a size")
        ambient = AmbientDescriptor.finite(args.n)
    elif args.kind == "countable":
        ambient = AmbientDescriptor.countably_infinite()
    else:
        ambient = AmbientDescriptor.uncountable()
    print(_compact(class_count(ambient).to_obj()))
    return 0


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
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
    p_verify.add_argument("--stage-cap", type=int, default=32)
    _add_config_flags(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_census = subs.add_parser("census", help="enumerate classes under bounds")
    p_census.add_argument("rank_bound")
    p_census.add_argument("count_bound", type=int)
    p_census.add_argument("--max-ranks", type=int, default=None)
    p_census.add_argument("--size-cap", type=int, default=100_000)
    p_census.set_defaults(handler=_cmd_census)

    p_count = subs.add_parser("classcount", help="number of classes over an ambient space")
    p_count.add_argument("kind", choices=("finite", "countable", "uncountable"))
    p_count.add_argument("n", type=int, nargs="?")
    p_count.set_defaults(handler=_cmd_classcount)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except tuple(_DOMAIN_LABELS) as exc:
        print(f"cbkit: {_domain_line(exc)}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"cbkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
