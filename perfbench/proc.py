"""Run one cbkit process at a time and measure it from outside.

Each process gets argv only; its tree and report files live in the
caller's work directory.  Wall time runs from just before the spawn to
the reap, and the peak resident set comes from the kernel's rusage of
that one child (os.wait4).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

PROCESS_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    code: int
    wall_s: float
    rss_kb: int
    stdout: bytes
    stderr: bytes

    @property
    def traceback(self) -> bool:
        return b"Traceback (most recent call last)" in self.stderr


class Runner:
    """Spawns `python -m cbkit`, or the traced entry point, from a checkout."""

    def __init__(self, root: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("CBKIT_STRICT", None)
        self.traced_entry = str(Path(__file__).resolve().parent / "traced_cli.py")

    def run(self, argv: list[str], cwd: Path, trace: tuple[str, Path] | None = None) -> Outcome:
        """Run one cbkit command in cwd; with trace=(job id, span file) it runs traced."""
        out_path, err_path = cwd / ".stdout", cwd / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawn_ns = time.monotonic_ns()
            if trace is None:
                cmd = [sys.executable, "-m", "cbkit", *argv]
            else:
                job, span_file = trace
                cmd = [sys.executable, self.traced_entry, str(spawn_ns), job, str(span_file), *argv]
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = (time.monotonic_ns() - spawn_ns) / 1e9
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, wall, usage.ru_maxrss, out_path.read_bytes(), err_path.read_bytes())
