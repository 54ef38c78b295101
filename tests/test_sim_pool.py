"""Tests for the shared warm worker pool."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parent.parent)

#: A parent process that starts a one-worker shared pool, prints the
#: worker's pid and then waits to be killed.
_PARENT = """
import os
import sys

from repro.sim.pool import shared_pool

pool = shared_pool(1)
print(pool.submit(os.getpid).result(timeout=60), flush=True)
sys.stdin.read()
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie nobody has reaped yet counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_worker_exits_when_its_parent_is_killed():
    # Two processes in all: the parent and its one pool worker.
    env = dict(os.environ, PYTHONPATH=_SRC)
    parent = subprocess.Popen(
        [sys.executable, "-c", _PARENT],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
    )
    try:
        worker = int(parent.stdout.readline())
        assert worker != parent.pid and _alive(worker)
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=10)
        deadline = time.monotonic() + 10
        while _alive(worker) and time.monotonic() < deadline:
            time.sleep(0.1)
        alive = _alive(worker)
        if alive:
            os.kill(worker, signal.SIGKILL)
        assert not alive, "pool worker outlived its SIGKILLed parent"
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait(timeout=10)
        parent.stdin.close()
        parent.stdout.close()
