"""Paths, child processes and statistics shared by the workloads."""

from __future__ import annotations

import json
import math
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: set-ups per run; ``setup_s`` is their median
SETUPS = 3


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)
    #: spans recorded by child processes, already joined with ``spans.concat``
    spans: list[dict] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``len(values) - ceil(q * n)`` samples lie above."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One line of a child's stdout, or '' if it exits or times out first."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            return ""
    return proc.stdout.readline()


def reap(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """Wait for a child to exit, killing it if it takes longer than ``timeout``."""
    deadline = time.monotonic() + timeout
    while proc.poll() is None:
        if time.monotonic() > deadline:
            proc.kill()
            deadline = time.monotonic() + timeout
        time.sleep(0.01)


def peak_rss_mb(pid: int) -> float:
    """Peak RSS in MB of a live process since its last exec (``VmHWM``).

    ``wait4`` is no use for a child of the harness: Linux reports a child's
    peak as at least what its parent held when it forked, and the harness
    holds a whole generated store.
    """
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def stop(proc: subprocess.Popen) -> None:
    """Terminate a long-running child and reap it."""
    if proc.returncode is None:
        proc.terminate()
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    reap(proc)


def python_cmd(*args: str) -> list[str]:
    return [sys.executable, *args]


class Launcher:
    """Runs commands from a small helper process, ``launcher.py``.

    A command started by the harness would report the harness's memory as
    its own peak RSS (see ``peak_rss_mb``). The helper holds a few MB only,
    so ``wait4`` in it gives the command's own peak. It also times each
    command from spawn to exit.
    """

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        self.proc = subprocess.Popen(
            python_cmd(str(BENCH / "launcher.py")),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            text=True,
        )

    def run(self, argv: list[str], cwd: Path, timeout: float = 150.0) -> tuple[float, int, bytes, bytes, float]:
        """(wall seconds, exit code, stdout, stderr, peak RSS in MB) of one command."""
        self.count += 1
        out, err = self.work / f"launch-{self.count}.out", self.work / f"launch-{self.count}.err"
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(out), "stderr": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = read_line(self.proc, timeout + 30.0)
        if not line:
            raise RuntimeError(f"launcher gave no answer for {argv!r}")
        reply = json.loads(line)
        result = reply["wall"], reply["code"], out.read_bytes(), err.read_bytes(), reply["rss_mb"]
        out.unlink()
        err.unlink()
        return result

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        stop(self.proc)
