"""`python -m cbkit` with spans around the calls into each layer.

Usage: traced_cli.py SPAWN_NS JOB_ID SPAN_FILE ARGV...

Wraps the public functions at the module attribute through which their
caller reaches them (cbkit.cli.geometry_check, cbkit.oracle.prune_steps,
...), then calls cbkit.cli.main(ARGV).  Per-node recursion inside the
oracles is left alone.  `cli.startup` spans the time from the spawn
(SPAWN_NS on the monotonic clock, taken by the parent) to entry into
main.  Spans stay in memory and go to SPAN_FILE when main returns.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from spans import Tracer

import cbkit.cli
import cbkit.oracle
import cbkit.realize

CLI_LAYERS = {
    "realize_multi": "realize.realize_multi",
    "tree_to_obj": "realize.tree_to_obj",
    "materialize_forest": "realize.materialize_forest",
    "load_forest": "realize.load_forest",
    "validate_tree": "realize.validate_tree",
    "audit_char": "oracle.audit_char",
    "geometry_check": "oracle.geometry_check",
    "char_by_pruning": "oracle.char_by_pruning",
    "restriction_check": "oracle.restriction_check",
    "parse_ordinal": "ordinal.parse_ordinal",
}


def _prune_passes(args: tuple, kwargs: dict) -> int:
    return kwargs["k"] if "k" in kwargs else args[1]


def main() -> int:
    spawn_ns, job, span_file, argv = int(sys.argv[1]), sys.argv[2], Path(sys.argv[3]), sys.argv[4:]
    tracer = Tracer(job)
    for attr, name in CLI_LAYERS.items():
        tracer.wrap(cbkit.cli, attr, name)
    tracer.wrap(cbkit.oracle, "prune_steps", "oracle.prune_steps", work=_prune_passes)
    # once per node while loading a tree: aggregated, not one span per call
    tracer.wrap(cbkit.realize, "parse_ordinal", "ordinal.parse_ordinal", hot=True)
    main_fn = tracer.span("cli.main", cbkit.cli.main)
    tracer.record("cli.startup", spawn_ns, time.monotonic_ns())
    try:
        return main_fn(argv)
    finally:
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main())
