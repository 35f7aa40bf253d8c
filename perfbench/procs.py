"""Paths shared by the benchmark's modules and the one way it runs a child process."""
from __future__ import annotations

import os
import signal
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
CHILD_TIMEOUT_S = 60


def child_env() -> dict:
    """The benchmark's environment, with the package importable from ``src/``."""
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass(frozen=True)
class Child:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int  # the child's own peak resident set size


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def run_child(cmd: list[str], timeout: int = CHILD_TIMEOUT_S) -> Child:
    """Run ``cmd`` to completion and return its exit code, output and peak RSS.

    The child is reaped with ``os.wait4`` to read its own ``ru_maxrss``;
    stdout and stderr go through files under ``OUT_DIR`` so that nothing
    has to drain pipes while it waits.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err, \
            subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env()) as proc:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{cmd[2:]} did not finish within {timeout} s") from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait for it
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss)
