"""Launch ``repro-serve`` as a subprocess, watch its memory, stop it cleanly."""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

READY_MARKER = "listening on http://"


class ServerError(RuntimeError):
    """The server did not start, or did not stop cleanly."""


class Server:
    """One ``python -m repro.serve.cli`` process (the ``repro-serve`` entry point).

    Only deployment settings are passed: address, root, cache size and
    topology.  Everything else, the coding engine included, is the
    server's default.
    """

    def __init__(
        self,
        checkout: Path,
        root: Path,
        log: Path,
        cache_bytes: Optional[int] = None,
        topology: str = "thread",
        workers_per_shard: int = 1,
        trace_dir: Optional[Path] = None,
        cpus: Optional[Sequence[int]] = None,
    ) -> None:
        self.root = root
        self.cpus = cpus
        self.argv = [
            sys.executable, "-m", "repro.serve.cli",
            "--host", "127.0.0.1", "--port", "0", "--root", str(root),
            "--topology", topology,
        ]
        if cache_bytes is not None:
            self.argv += ["--cache-bytes", str(cache_bytes)]
        if topology == "proc":
            self.argv += ["--workers-per-shard", str(workers_per_shard)]
        tmp = root.parent / (root.name + "-tmp")
        self.env = dict(os.environ, TMPDIR=str(tmp))
        paths = [str(checkout / "src")]
        self.env.pop("PERFBENCH_TRACE_DIR", None)
        if trace_dir is not None:
            # The hook directory holds a sitecustomize module, which every
            # server process (proxy and spawned workers) imports at start-up.
            paths.append(str(Path(__file__).resolve().parent / "tracehook"))
            self.env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.log = log
        self.tmp = tmp
        self.cwd = checkout
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.worker_pids: List[int] = []

    def start(self, timeout: float = 60.0) -> "Server":
        for path in (self.root, self.tmp):
            shutil.rmtree(path, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        with open(self.log, "ab") as log:
            self.process = subprocess.Popen(
                self.argv, cwd=self.cwd, env=self.env, stdout=subprocess.PIPE, stderr=log
            )
        if self.cpus:
            # Set before the server spawns threads or workers, which inherit
            # it; otherwise they would inherit the benchmark's own CPU.
            os.sched_setaffinity(self.process.pid, self.cpus)
        stdout = self.process.stdout
        assert stdout is not None
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                self.kill()
                raise ServerError("repro-serve did not print its ready line (log: %s)" % self.log)
            ready, _, _ = select.select([stdout], [], [], min(remaining, 0.5))
            if ready:
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    continue
                line += chunk
        text = line.decode("utf-8", "replace")
        if READY_MARKER not in text:
            self.kill()
            raise ServerError("unexpected first line from repro-serve: %r" % text)
        address = text.split(READY_MARKER, 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        # Nothing more is printed on stdout; drain it anyway so the pipe can never fill.
        threading.Thread(target=lambda: stdout.read(), daemon=True).start()
        return self

    def note_workers(self, stats: Dict[str, object]) -> None:
        """Remember the worker pids a proc-topology ``/stats`` lists."""
        workers = stats.get("workers") or {}
        self.worker_pids = [
            int(entry["pid"])
            for group in workers.values()  # type: ignore[union-attr]
            for entry in group
            if entry.get("pid")
        ]

    def cpu_lists(self) -> Dict[str, str]:
        """The CPUs each server process may run on: the server, then any workers."""
        assert self.process is not None
        lists = {"server": cpu_list(self.process.pid)}
        for index, pid in enumerate(self.worker_pids):
            lists["worker-%d" % index] = cpu_list(pid)
        return lists

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the server process tree, in MB (10^6 bytes)."""
        assert self.process is not None
        total_kib = 0
        for pid in [self.process.pid] + self.worker_pids:
            try:
                with open("/proc/%d/status" % pid) as status:
                    for row in status:
                        if row.startswith("VmHWM:"):
                            total_kib += int(row.split()[1])
            except OSError:
                raise ServerError("server process %d vanished before its RSS was read" % pid)
        return total_kib * 1024 / 1e6

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, wait for the drain, and make sure no worker outlives the proxy."""
        process = self.process
        if process is None:
            return 0
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            code = -9
        self._reap_workers(timeout)
        self.process = None
        shutil.rmtree(self.root, ignore_errors=True)
        shutil.rmtree(self.tmp, ignore_errors=True)
        return code

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._reap_workers(5.0)
        self.process = None

    def _reap_workers(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for pid in self.worker_pids:
            while _alive(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    deadline = time.monotonic() + 5.0
                time.sleep(0.02)


def cpu_list(pid: int) -> str:
    """The CPUs process ``pid`` (0: this one) may run on, as ``/proc`` lists them."""
    with open("/proc/%s/status" % (pid or "self")) as status:
        for row in status:
            if row.startswith("Cpus_allowed_list:"):
                return row.split(":", 1)[1].strip()
    raise ServerError("no Cpus_allowed_list in /proc/%s/status" % (pid or "self"))


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs and is not a zombie waiting for its parent."""
    try:
        with open("/proc/%d/stat" % pid) as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
