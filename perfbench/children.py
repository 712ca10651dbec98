"""The system under test as child processes: `repro serve` / `repro route`.

Wire workloads run the server (and router) as real child processes, so
the load generator does not share an interpreter lock with them.  The
children are built on :class:`repro.cluster.fleet.NodeProcess`; a
:class:`Children` group always tears every child down, also on failure.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.cluster.fleet import NodeProcess

# NodeProcess always passes --shards and --log-level; these restate the
# CLI defaults, so a node runs `repro serve` with default flags
SERVE_DEFAULTS = {"metrics": False, "log_level": "info"}


class RouteProcess(NodeProcess):
    """`repro route` in front of ``nodes``, otherwise default flags."""

    def __init__(self, nodes: list[NodeProcess], **kwargs) -> None:
        super().__init__(**kwargs)
        self.nodes = nodes

    def _command(self) -> list[str]:
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "route",
            "--host",
            self.host,
            "--port",
            str(self.port),
        ]
        for node in self.nodes:
            cmd += ["--node", node.name]
        return cmd


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Children:
    """Every child process of one set-up, started in order."""

    def __init__(self) -> None:
        self.procs: list[NodeProcess] = []

    def start(self, proc: NodeProcess, timeout: float = 60.0) -> NodeProcess:
        self.procs.append(proc)
        proc.start(timeout=timeout)
        return proc

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the children (read before teardown)."""
        return sum(peak_rss_mb(proc.pid) for proc in self.procs)

    def stop(self) -> None:
        """Stop every child, router first, and wait until each has ended."""
        procs, self.procs = self.procs, []
        for proc in reversed(procs):
            try:
                proc.stop(timeout=10.0)
            except Exception:  # noqa: BLE001 — teardown must reach every child
                pass
            if proc.process is not None and proc.process.poll() is None:
                proc.process.kill()
            if proc.process is not None:
                proc.process.wait(timeout=10)
