"""Server processes under test: spawn, wait until ready, read RSS, stop.

Untraced runs boot the real CLIs (``python -m repro.server`` and
``python -m repro.coordinator``) with their defaults.  Traced runs boot the
same CLIs through ``perfbench/traced_server.py``, which installs the span
recorder before calling the CLI's ``main``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import threading
from typing import Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
READY_PREFIX = "listening on "
BOOT_TIMEOUT_S = 60.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"]
                                  if env.get("PYTHONPATH") else "")
    # One transport for every process: the CLI default, not the caller's env.
    env.pop("REPRO_TRANSPORT", None)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_SLOW_QUERY_MS", None)
    return env


class ServerProcess:
    """One server CLI process; its output is drained by a thread."""

    def __init__(self, role: str, module: str, arguments: Sequence[str],
                 spans_path: Optional[pathlib.Path] = None):
        self.role = role
        if spans_path is None:
            command = [sys.executable, "-m", module, *arguments]
        else:
            command = [sys.executable, str(HERE / "traced_server.py"),
                       str(spans_path), role, module, *arguments]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, bufsize=1, env=child_env(), cwd=str(ROOT),
        )
        self.lines: List[str] = []
        self.url: Optional[str] = None
        self._ready = threading.Event()
        self._drain = threading.Thread(target=self._read, daemon=True,
                                       name=f"drain-{role}")
        self._drain.start()

    def _read(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            line = line.rstrip("\n")
            self.lines.append(line)
            if self.url is None and line.startswith(READY_PREFIX):
                self.url = line[len(READY_PREFIX):].strip()
                self._ready.set()
        self._ready.set()  # EOF: wake a waiter so it sees the exit

    def wait_ready(self) -> str:
        if not self._ready.wait(BOOT_TIMEOUT_S) or self.url is None:
            self.stop()
            raise RuntimeError(f"{self.role} did not become ready; output: "
                               f"{self.lines[-20:]}")
        return self.url

    def peak_rss_mb(self) -> float:
        """VmHWM (peak resident set) of the process, in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (graceful drain + checkpoint), SIGKILL after ``timeout``."""
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._drain.join(timeout=5.0)
        return self.process.returncode


def boot_server(snapshot: pathlib.Path, wal: pathlib.Path,
                spans_path: Optional[pathlib.Path] = None) -> ServerProcess:
    """The single-node server with every CLI default (bar access logging)."""
    server = ServerProcess("server", "repro.server",
                           ["--snapshot", str(snapshot), "--wal", str(wal),
                            "--port", "0", "--quiet"], spans_path)
    server.wait_ready()
    return server


def boot_sharded(snapshot: pathlib.Path, partitions: Sequence[str],
                 spans_dir: Optional[pathlib.Path] = None) -> List[ServerProcess]:
    """One shard process per partition, then the coordinator (last in the list)."""
    fleet: List[ServerProcess] = []
    try:
        for partition in partitions:
            spans = spans_dir / f"spans-shard-{partition}.jsonl" if spans_dir else None
            fleet.append(ServerProcess(
                f"shard-{partition}", "repro.server",
                ["--snapshot", str(snapshot), "--shard", partition,
                 "--port", "0", "--quiet"], spans))
        for shard in fleet:
            shard.wait_ready()
        topology = ",".join(f"{partition}={shard.url}"
                            for partition, shard in zip(partitions, fleet))
        spans = spans_dir / "spans-coordinator.jsonl" if spans_dir else None
        coordinator = ServerProcess(
            "coordinator", "repro.coordinator",
            ["--snapshot", str(snapshot), "--shards", topology,
             "--port", "0", "--quiet"], spans)
        fleet.append(coordinator)
        coordinator.wait_ready()
    except BaseException:
        stop_all(fleet)
        raise
    return fleet


def stop_all(processes: Sequence[ServerProcess]) -> None:
    for process in reversed(list(processes)):
        process.stop()
