"""cbkit benchmark: one closed-loop client, at most one cbkit process at a time.

    python3 perfbench/run.py [--workload {roundtrip,verify_corpus,calculus}] \
        --seed N --seconds S --trace {0,1}

Without --workload it runs all three in turn.

Run it from the root of a checkout; it puts `src/` on PYTHONPATH of each
cbkit process it starts and writes only under `.perfbench_work/` (removed
at exit) and `.perfbench_out/` (span files of traced runs).

Workloads (inputs come from perfbench/jobs.py, which says why each pool
was chosen):
  roundtrip      `cbkit realize RANK -p P --out F` then `cbkit verify F`,
                 two processes per job, over whole rounds of a grid pool.
  verify_corpus  `cbkit verify FILE FLAGS`, one process per file, over a
                 corpus of valid and mutated trees built in set-up.
  calculus       one worker process running ordinal and space op batches.

Every job's outcome is checked against its known answer: exit codes,
characteristics, the oracle that must reject a mutated tree, digests of
output bytes recorded at the seed (perfbench/digests.json), and for
calculus the algebraic laws.  A job that ends with a verdict that
differs from the known answer is *wrong* and makes `correct` false.  A
job that ends without a verdict (a traceback, exit 2 or 3, a raised op)
is *failed* but not wrong.  Both count in `failed`.

With --trace 0 the last line carries the end-to-end metrics; the set-up
is repeated (see SETUP_REPEATS) and its median reported.  With --trace 1
every job also runs a second time through perfbench/traced_cli.py (or
the worker's wrapped ops), the last line carries per-layer metrics as
means per job, and the report gives the tracing overhead as traced
minus untraced wall time.  End-to-end metrics never come from a traced
run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from jobs import (
    CORPUS_POOL,
    ROUNDTRIP_POOL,
    build_corpus,
    calculus_stream,
    corpus_key,
    corpus_rounds,
    roundtrip_key,
    roundtrip_rounds,
)
from proc import Runner
from spans import layer_totals

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have passed;
# its median is setup_s.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.5
WORKLOADS = ("roundtrip", "verify_corpus", "calculus")
CALC_BATCH = 1000

# Per-layer metrics of a traced run, as means per job (per batch for calculus).
SPAN_LAYERS = (
    "realize.realize_multi", "realize.tree_to_obj", "realize.materialize_forest",
    "realize.load_forest", "realize.validate_tree",
    "oracle.restriction_check", "oracle.prune_steps", "oracle.geometry_check",
    "oracle.char_by_pruning", "oracle.audit_char",
)
ORDINAL_OPS = ("parse_ordinal", "format_ordinal", "add", "mul", "cmp", "left_sub", "fundamental_seq")
SPACE_OPS = ("derivative_steps", "union_char", "homeomorphic", "census")
COUNTS = (
    ("cli.bytes_out", "bytes"), ("realize.nodes_built", "count"), ("realize.points", "count"),
    ("realize.bytes_in", "bytes"), ("oracle.restriction_cases", "count"),
    ("oracle.prune_passes", "count"), ("oracle.annuli", "count"),
)


def per_layer_units() -> dict[str, str]:
    units = {"cli.startup_s": "s", "cli.self_s": "s", "trace.overhead_s": "s"}
    units.update({f"{name}_s": "s" for name in SPAN_LAYERS})
    units.update(dict(COUNTS))
    for layer, ops in (("ordinal", ORDINAL_OPS), ("space", SPACE_OPS)):
        for op in ops:
            units[f"{layer}.{op}_s"] = "s"
            units[f"{layer}.{op}_calls"] = "count"
    return units


def metric_name(span: str) -> str:
    return {"cli.startup": "cli.startup_s", "cli.main": "cli.self_s"}.get(span, f"{span}_s")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    q = 100 * (n - 10) // n if n > 10 else 100
    return q, ordered[max(1, math.ceil(q * n / 100)) - 1]


def tail_mean(values: list[float]) -> tuple[int, float]:
    """Mean of the slowest fifth of the samples, at least ten of them.

    This is the gated tail.  A run repeats whole rounds of a pool whose
    jobs differ by an order of magnitude, so any single order statistic
    can sit at the top of a small cluster of like jobs and take the
    slowest of them; a mean over the slowest fifth covers the same jobs
    whatever the number of rounds and averages out single hiccups.
    """
    k = min(len(values), max(10, math.ceil(len(values) / 5)))
    return k, statistics.fmean(sorted(values)[-k:])


class Tally:
    """Outcome counts and timings of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.no_answer: list[str] = []
        self.wrong: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.peak_kb = 0
        self.work = 0  # nodes verified, or calculus ops
        self.layers: dict[str, float] = defaultdict(float)
        self.spans: list = []
        self.accounted = False  # one traced job's time has been broken down

    def judge(self, label: str, verdict: tuple[str, str] | None) -> None:
        self.attempted += 1
        if verdict is not None:
            kind, why = verdict
            (self.wrong if kind == "wrong" else self.no_answer).append(f"{label}: {why}")

    @property
    def failed(self) -> int:
        return len(self.no_answer) + len(self.wrong)

    def seen(self, *outcomes) -> None:
        for o in outcomes:
            self.peak_kb = max(self.peak_kb, o.rss_kb)


def no_answer(o, what: str) -> tuple[str, str] | None:
    if o.traceback:
        return "no answer", f"{what} traceback: {o.stderr.decode(errors='replace').strip().splitlines()[-1]}"
    if o.code not in (0, 1):
        return "no answer", f"{what} exit {o.code}: {o.stderr.decode(errors='replace').strip()[:200]}"
    return None


def judge_report(o, expect_exit: int, rank: str, p: int, oracle: str | None, digest: str | None):
    """Verdict of one verify process against its known answer (None when right)."""
    bad = no_answer(o, "verify")
    if bad:
        return bad
    try:
        report = json.loads(o.stdout)
    except ValueError:
        return "wrong", "verify report is not JSON"
    if o.code != expect_exit or report.get("ok") != (expect_exit == 0):
        return "wrong", f"verify exit {o.code}, expected {expect_exit}: {report.get('failures')}"
    if expect_exit == 0:
        char = {"rank": rank, "count": p}
        if report.get("char_expected") != char:
            return "wrong", f"char_expected {report.get('char_expected')} != {char}"
        if rank.isdigit() and report.get("char_pruned") != char:
            return "wrong", f"char_pruned {report.get('char_pruned')} != {char}"
    elif not any(f.split(":")[0].split("[")[0] == oracle for f in report.get("failures", [])):
        return "wrong", f"no {oracle} failure in {report.get('failures')}"
    if digest is not None and sha(o.stdout) != digest:
        return "wrong", "verify report bytes differ from the seed's"
    return None


def node_count(tree_bytes: bytes) -> int:
    return tree_bytes.count(b'"center"')


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"roundtrip": {}, "verify_corpus": {}}


class Bench:
    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.seed, self.seconds, self.trace = args.seed, args.seconds, args.trace
        self.work = work
        self.runner = Runner(ROOT)
        self.digests = load_digests()
        self.tally = Tally()
        self.setup_times: list[float] = []
        self.overhead: list[float] = []
        self.jobs_traced = 0
        self.lines: list[str] = []

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    # --- traced CLI processes ---------------------------------------------

    def run_cli(self, argv: list[str], cwd: Path, job: str, traced: bool):
        if not traced:
            return self.runner.run(argv, cwd), None
        span_file = cwd / ".spans.json"
        span_file.unlink(missing_ok=True)
        o = self.runner.run(argv, cwd, trace=(job, span_file))
        spans = json.loads(span_file.read_text()) if span_file.exists() else {"spans": [], "aggregates": []}
        self.tally.spans.append(spans)
        return o, spans

    def add_layers(self, spans: dict, counts: dict[str, int]) -> dict[str, float]:
        self_s, calls = layer_totals(spans)
        for name, seconds in self_s.items():
            self.tally.layers[metric_name(name)] += seconds
        for name, n in calls.items():
            if name.startswith(("ordinal.", "space.")):
                self.tally.layers[f"{name}_calls"] += n
        self.tally.layers["oracle.restriction_cases"] += calls.get("oracle.restriction_check", 0)
        self.tally.layers["oracle.prune_passes"] += calls.get("oracle.prune_steps.work", 0)
        for key, n in counts.items():
            self.tally.layers[key] += n
        return self_s

    def account(self, job: str, wall: float, untraced: float, self_s: dict[str, float]) -> None:
        """Show that the traced job's self times add up to its wall time."""
        total = sum(self_s.values())
        parts = ", ".join(f"{metric_name(k)} {v:.4f}" for k, v in sorted(self_s.items(), key=lambda kv: -kv[1]))
        self.tally.accounted = True
        self.lines.append(
            f"traced job {job}: wall {wall:.4f} s = self times {total:.4f} s [{parts}]"
            f" + exit and span dump {wall - total:.4f} s; untraced {untraced:.4f} s,"
            f" overhead {wall - untraced:.4f} s"
        )

    # --- roundtrip ------------------------------------------------------------

    def roundtrip_setup(self) -> Path:
        work = self.fresh_dir("roundtrip")
        self.rounds = roundtrip_rounds(self.seed)
        self.runner.run(["realize", "1", "--out", "warm.json"], work)
        self.runner.run(["verify", "warm.json"], work)
        return work

    def roundtrip_job(self, work: Path, cell: int, rank: str, p: int, extra, traced: bool, job: str):
        name = f"rt{cell:02d}.json"
        for stale in (name, name + ".points.csv"):
            (work / stale).unlink(missing_ok=True)
        r, r_spans = self.run_cli(["realize", rank, "-p", str(p), "--out", name, *extra], work, job + "/realize", traced)
        tree = (work / name).read_bytes() if (work / name).exists() else b""
        points = (work / (name + ".points.csv")).read_bytes() if (work / (name + ".points.csv")).exists() else b""
        if r.code != 0 or r.traceback or not tree:
            return r, None, tree, points, no_answer(r, "realize") or ("no answer", f"realize exit {r.code}"), r_spans, None
        v, v_spans = self.run_cli(["verify", name], work, job + "/verify", traced)
        recorded = self.digests["roundtrip"].get(roundtrip_key(rank, p, extra))
        verdict = None
        if recorded is not None and (sha(tree) != recorded["tree"] or sha(points) != recorded["points"]):
            verdict = ("wrong", "realize output bytes differ from the seed's")
        verdict = verdict or judge_report(v, 0, rank, p, None, recorded and recorded["report"])
        return r, v, tree, points, verdict, r_spans, v_spans

    def roundtrip(self) -> None:
        t = self.tally
        work = self.setup(self.roundtrip_setup)
        start = time.monotonic()
        rounds = 0
        while self.another_round(start, rounds):
            for cell, rank, p, extra in next(self.rounds):
                job = f"r{rounds}/{roundtrip_key(rank, p, extra)}"
                r, v, tree, points, verdict, _, _ = self.roundtrip_job(work, cell, rank, p, extra, False, job)
                t.judge(job, verdict)
                t.seen(r, *([v] if v else []))
                t.times["realize_s"].append(r.wall_s)
                if v is not None:
                    t.times["verify_s"].append(v.wall_s)
                    t.times["job_s"].append(r.wall_s + v.wall_s)
                    t.work += node_count(tree)
                else:
                    t.times["job_s"].append(r.wall_s)
                if self.trace:
                    rt, vt, _, _, _, r_spans, v_spans = self.roundtrip_job(work, cell, rank, p, extra, True, job)
                    counts = {
                        "cli.bytes_out": len(tree) + len(points) + (len(vt.stdout) if vt else 0),
                        "realize.nodes_built": node_count(tree),
                        "realize.points": max(0, points.count(b"\n") - 1),
                        "realize.bytes_in": len(tree) if vt else 0,
                        "oracle.annuli": annuli(vt),
                    }
                    self_s = self.add_layers(r_spans, counts)
                    if v_spans is not None:
                        for k, s in self.add_layers(v_spans, {}).items():
                            self_s[k] = self_s.get(k, 0.0) + s
                    wall = rt.wall_s + (vt.wall_s if vt else 0.0)
                    untraced = r.wall_s + (v.wall_s if v else 0.0)
                    self.overhead.append(wall - untraced)
                    self.jobs_traced += 1
                    if not t.accounted and vt is not None and not rank.isdigit():
                        self.account(job, wall, untraced, self_s)
            rounds += 1
        self.lines.insert(0, f"roundtrip: {t.attempted} jobs in {rounds} rounds of {len(ROUNDTRIP_POOL)}, {time.monotonic() - start:.1f} s")
        if not self.trace:
            self.report_times("roundtrip_s", t.times["job_s"])
            self.report_times("realize_s", t.times["realize_s"], tail_too=False)
            self.report_times("verify_s", t.times["verify_s"])
            self.lines.append(f"nodes_per_s = {t.work / sum(t.times['job_s']):.1f} 1/s ({t.work} nodes verified)")

    # --- verify_corpus ----------------------------------------------------

    def corpus_setup(self) -> Path:
        work = self.fresh_dir("verify_corpus")
        self.manifest = build_corpus(self.seed, work, lambda argv, cwd: self.runner.run(argv, cwd).code)
        self.corpus_bad = {}
        for item in self.manifest:
            recorded = self.digests["verify_corpus"].get(item["key"])
            if item["expect"]["exit"] == 0 and recorded is not None:
                tree = (work / item["file"]).read_bytes()
                points = (work / (item["file"] + ".points.csv")).read_bytes()
                if sha(tree) != recorded["tree"] or sha(points) != recorded["points"]:
                    self.corpus_bad[item["file"]] = "realize output bytes differ from the seed's"
        self.rounds = corpus_rounds(self.seed, self.manifest)
        return work

    def corpus_job(self, work: Path, item: dict, traced: bool, job: str):
        o, spans = self.run_cli(["verify", item["file"], *item["flags"]], work, job, traced)
        recorded = self.digests["verify_corpus"].get(item["key"]) if item["expect"]["exit"] == 0 else None
        verdict = judge_report(
            o, item["expect"]["exit"], item["rank"], item["p"], item["expect"].get("oracle"), recorded and recorded["report"]
        )
        if verdict is None and item["file"] in self.corpus_bad:
            verdict = ("wrong", self.corpus_bad[item["file"]])
        return o, verdict, spans

    def verify_corpus(self) -> None:
        t = self.tally
        work = self.setup(self.corpus_setup)
        sizes = {item["file"]: (work / item["file"]).stat().st_size for item in self.manifest}
        nodes = {item["file"]: node_count((work / item["file"]).read_bytes()) for item in self.manifest}
        start = time.monotonic()
        rounds = 0
        while self.another_round(start, rounds):
            for item in next(self.rounds):
                job = f"r{rounds}/{item['file']}"
                o, verdict, _ = self.corpus_job(work, item, False, job)
                t.judge(job, verdict)
                t.seen(o)
                t.times["job_s"].append(o.wall_s)
                t.work += nodes[item["file"]]
                if self.trace:
                    ot, _, spans = self.corpus_job(work, item, True, job)
                    counts = {"cli.bytes_out": len(ot.stdout), "realize.bytes_in": sizes[item["file"]], "oracle.annuli": annuli(ot)}
                    self_s = self.add_layers(spans, counts)
                    self.overhead.append(ot.wall_s - o.wall_s)
                    self.jobs_traced += 1
                    if not t.accounted and item["expect"]["exit"] == 0:
                        self.account(job, ot.wall_s, o.wall_s, self_s)
            rounds += 1
        self.lines.insert(0, f"verify_corpus: {t.attempted} verify processes in {rounds} rounds of {len(self.manifest)} files, {time.monotonic() - start:.1f} s")
        if not self.trace:
            self.report_times("verify_s", t.times["job_s"])
            self.lines.append(f"nodes_per_s = {t.work / sum(t.times['job_s']):.1f} 1/s ({t.work} nodes verified)")

    # --- calculus ---------------------------------------------------------

    def calculus_setup(self):
        work = self.fresh_dir("calculus")
        stream = work / "ops.txt"
        stream.write_text("\n".join(calculus_stream(self.seed)) + "\n")
        if getattr(self, "worker", None) is not None:
            self.stop_worker()
        self.worker = subprocess.Popen(
            [sys.executable, str(HERE / "calc_worker.py"), str(stream), "1" if self.trace else "0"],
            cwd=work, env=self.runner.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = json.loads(self.worker.stdout.readline())
        self.stream_len = ready["ready"]
        self.refused = ready["broken"]
        return work

    def stop_worker(self) -> int:
        self.worker.stdin.write("quit\n")
        self.worker.stdin.close()
        _, status, usage = os.wait4(self.worker.pid, 0)
        self.worker.returncode = os.waitstatus_to_exitcode(status)
        self.worker.stdout.close()
        self.worker = None
        return usage.ru_maxrss

    def calculus(self) -> None:
        try:
            self.run_calculus()
        finally:
            if getattr(self, "worker", None) is not None:
                self.worker.kill()
                self.worker.wait()

    def run_calculus(self) -> None:
        t = self.tally
        self.setup(self.calculus_setup)
        slices = self.stream_len // CALC_BATCH
        start = time.monotonic()
        k = 0
        while k % slices or self.another_round(start, k // slices):
            first = (k % slices) * CALC_BATCH
            self.worker.stdin.write(f"batch {first} {CALC_BATCH}\n")
            self.worker.stdin.flush()
            reply = json.loads(self.worker.stdout.readline())
            t.attempted += reply["ops"]
            t.times["job_s"].append(reply["ns"] / 1e9)
            t.no_answer += [f"op {i}: {why}" for i, why in reply["raised"]]
            t.wrong += [f"op {i}: {why}" for i, why in reply["wrong"]]
            if self.trace:
                traced = reply["traced_ns"] / 1e9
                t.spans.append(reply["trace"])
                self_s = self.add_layers(reply["trace"], {})
                self.overhead.append(traced - reply["ns"] / 1e9)
                self.jobs_traced += 1
                if not t.accounted:
                    self.account(f"batch@{first}", traced, reply["ns"] / 1e9, self_s)
            k += 1
        t.peak_kb = self.stop_worker()
        if self.refused:
            self.lines.append(f"{len(self.refused)} ops have operand text cbkit refused, e.g. {self.refused[0]}")
        t.work = t.attempted
        self.lines.insert(0, f"calculus: {t.attempted} ops in {k} batches of {CALC_BATCH} ({k // slices} passes over {self.stream_len} ops), {time.monotonic() - start:.1f} s")
        if not self.trace:
            self.report_times("batch_s", t.times["job_s"])
            self.lines.append(f"ops_per_s = {t.attempted / sum(t.times['job_s']):.1f} 1/s")

    # --- shared -------------------------------------------------------------

    def another_round(self, start: float, done: int) -> bool:
        """Measure whole rounds, as many as come closest to --seconds."""
        elapsed = time.monotonic() - start
        return done == 0 or elapsed + elapsed / done / 2 < self.seconds

    def setup(self, fn):
        """Run set-up repeatedly (once when tracing), timing each; keep the last."""
        while True:
            start = time.monotonic()
            result = fn()
            self.setup_times.append(time.monotonic() - start)
            if self.trace or (len(self.setup_times) >= SETUP_REPEATS and sum(self.setup_times) >= SETUP_MIN_S):
                return result

    def report_times(self, name: str, values: list[float], tail_too: bool = True) -> None:
        self.lines.append(f"{name}.p50 = {statistics.median(values):.5f} s (n={len(values)})")
        if tail_too:
            q, value = tail(values)
            self.lines.append(f"{name}.tail = {value:.5f} s (p{q}, n={len(values)}, {len(values) - math.ceil(q * len(values) / 100)} beyond)")

    def result(self, workload: str) -> dict:
        t = self.tally
        self.lines.append(f"peak_rss_mb = {t.peak_kb / 1024:.2f} MB (measured processes)")
        self.lines.append(
            f"failed_share = {t.failed}/{t.attempted} = {t.failed / t.attempted:.5f}"
            f" ({len(t.no_answer)} without an answer, {len(t.wrong)} wrong)"
        )
        for why in sorted(set(w.split(": ", 1)[1] for w in t.no_answer + t.wrong))[:8]:
            self.lines.append(f"  failure: {why}")
        if not self.trace:
            k, job_tail = tail_mean(t.times["job_s"])
            self.lines.append(f"job_s.tail_mean = {job_tail:.5f} s (mean of the slowest {k} of {len(t.times['job_s'])})")
            self.lines.append(f"setup_s = {statistics.median(self.setup_times):.5f} s (median of {len(self.setup_times)})")
            metrics = {
                "setup_s": (statistics.median(self.setup_times), "s"),
                "job_s.p50": (statistics.median(t.times["job_s"]), "s"),
                "job_s.tail_mean": (job_tail, "s"),
                "work_per_s": (t.work / sum(t.times["job_s"]), "1/s"),
                "peak_rss_mb": (t.peak_kb / 1024, "MB"),
            }
        else:
            jobs = max(1, self.jobs_traced)
            overhead = statistics.mean(self.overhead)
            self.lines.append(f"tracing overhead = {overhead:.5f} s per job (traced minus untraced wall, {jobs} jobs)")
            layers = dict(t.layers, **{"trace.overhead_s": overhead * jobs})
            metrics = {name: (layers.get(name, 0.0) / jobs, unit) for name, unit in per_layer_units().items()}
            job_wall = statistics.mean(t.times["job_s"])
            shares = sorted(((v / jobs / job_wall, k) for k, v in t.layers.items() if k.endswith("_s")), reverse=True)
            self.lines.append("self-time shares of the untraced job wall: " + ", ".join(f"{k} {s:.3f}" for s, k in shares if s >= 0.001))
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            (out / f"trace-{workload}-seed{self.seed}.json").write_text(json.dumps(t.spans))
        return {
            "correct": not t.wrong,
            "attempted": t.attempted,
            "failed": t.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def annuli(o) -> int:
    try:
        return json.loads(o.stdout)["geometry"]["annuli"] if o is not None else 0
    except (ValueError, KeyError, TypeError):
        return 0


def record_digests(args: argparse.Namespace, work: Path) -> None:
    """Write perfbench/digests.json from one round of every pool, for jobs whose verdict is right."""
    bench = Bench(args, work)
    bench.digests = {"roundtrip": {}, "verify_corpus": {}}
    out: dict = {"roundtrip": {}, "verify_corpus": {}}
    rt = bench.roundtrip_setup()
    for cell, rank, p, extra in next(bench.rounds):
        _, v, tree, points, verdict, _, _ = bench.roundtrip_job(rt, cell, rank, p, extra, False, "record")
        if verdict is None:
            out["roundtrip"][roundtrip_key(rank, p, extra)] = {"tree": sha(tree), "points": sha(points), "report": sha(v.stdout)}
    vc = bench.corpus_setup()
    for item in bench.manifest:
        if item["expect"]["exit"] == 0:
            o, verdict, _ = bench.corpus_job(vc, item, False, "record")
            if verdict is None:
                out["verify_corpus"][item["key"]] = {
                    "tree": sha((vc / item["file"]).read_bytes()),
                    "points": sha((vc / (item["file"] + ".points.csv")).read_bytes()),
                    "report": sha(o.stdout),
                }
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out['roundtrip'])}/{len(ROUNDTRIP_POOL)} roundtrip and {len(out['verify_corpus'])}/{len(CORPUS_POOL)} corpus digests")


def main() -> int:
    parser = argparse.ArgumentParser(description="cbkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all three in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true", help="rewrite perfbench/digests.json and exit")
    args = parser.parse_args()
    missing = [p for p in ("src/cbkit/cli.py", "tests/cnf_reference.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a cbkit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # without --workload, all three run one after another, each with its own result line
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
        try:
            if args.record_digests:
                record_digests(args, work)
                return 0
            bench = Bench(args, work)
            getattr(bench, workload)()
            result = bench.result(workload)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()
            except OSError:
                pass  # another run still uses it
        print(f"python {platform.python_version()}, nproc {os.cpu_count()}, seed {args.seed}, trace {args.trace}")
        print("\n".join(bench.lines))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
