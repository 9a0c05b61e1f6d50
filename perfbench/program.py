"""Drive the program from outside: CLI subprocesses and a real server.

Every process runs from the checkout's ``src`` tree with a fresh
scratch directory (cache, ledger, working directory) under
``.perfbench-tmp/`` in the checkout, so a run leaves nothing behind
and never touches the repository's own ``.repro*`` state.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Seconds a CLI command or server start may take before it counts as
#: failed (well inside the benchmark's own 180 s limit).
COMMAND_TIMEOUT = 150.0


@dataclass
class Result:
    """One finished program process."""

    argv: list[str]
    returncode: int
    wall: float
    max_rss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0


class Checkout:
    """The program's source tree plus one run's scratch directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        base = root / ".perfbench-tmp"
        base.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(self.src)
        self.env["REPRO_LEDGER_DIR"] = str(self.tmp / "ledger")
        self.env.pop("PYTHONSTARTUP", None)
        self._count = 0
        self.processes: list[Result] = []

    def fresh_dir(self, stem: str) -> Path:
        """A new empty directory under this run's scratch space."""
        self._count += 1
        path = self.tmp / f"{stem}-{self._count}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    @property
    def peak_rss_mb(self) -> float:
        """Largest resident set of any program process this run."""
        return max(r.max_rss_mb for r in self.processes)

    # -- processes -------------------------------------------------------

    def python(self, *args: str, record: bool = True) -> Result:
        """Run ``python <args>`` to completion and measure it."""
        argv = [sys.executable, *args]
        out_path = self.tmp / "stdout.txt"
        err_path = self.tmp / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.tmp, env=self.env,
                                    stdout=out, stderr=err)
            returncode, rss_mb = _wait(proc, COMMAND_TIMEOUT)
            wall = time.perf_counter() - start
        result = Result(argv, returncode, wall, rss_mb,
                        out_path.read_text(errors="replace"),
                        err_path.read_text(errors="replace"))
        if record:
            self.processes.append(result)
        return result

    def repro(self, *args: str, record: bool = True) -> Result:
        """Run ``python -m repro <args>``."""
        return self.python("-m", "repro", *args, record=record)

    def start_server(self, cache_dir: Path, *extra: str) -> "Server":
        """Launch ``repro serve`` and wait for its first healthy answer."""
        port = _free_port()
        argv = [sys.executable, "-m", "repro", "serve", "--port", str(port),
                "--cache-dir", str(cache_dir), *extra]
        log = open(self.tmp / f"serve-{port}.log", "wb")
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.tmp, env=self.env,
                                stdout=log, stderr=subprocess.STDOUT)
        server = Server(self, proc, port, log, argv)
        deadline = start + COMMAND_TIMEOUT
        while True:
            if proc.poll() is not None:
                server.stop()
                raise RuntimeError(f"server exited early: {argv}")
            try:
                status, _ = get(port, "/v1/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                server.stop()
                raise RuntimeError(f"server never became healthy: {argv}")
            time.sleep(0.01)
        server.ready_seconds = time.perf_counter() - start
        return server


@dataclass
class Server:
    """A running ``repro serve`` process."""

    checkout: Checkout
    proc: subprocess.Popen
    port: int
    log: object
    argv: list[str]
    ready_seconds: float = 0.0
    result: Result | None = field(default=None)

    def stop(self, record: bool = True) -> Result:
        """Interrupt the server, wait for it, and record its RSS."""
        if self.result is not None:
            return self.result
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
        returncode, rss_mb = _wait(self.proc, 30.0)
        self.log.close()
        self.result = Result(self.argv, returncode, 0.0, rss_mb, "", "")
        if record:
            self.checkout.processes.append(self.result)
        return self.result


def _wait(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Reap ``proc`` (killing it after ``timeout``); (exit code, max RSS MB).

    ``os.wait4`` reports the peak RSS of the process and of every
    descendant it reaped itself, such as campaign pool workers.
    """
    if proc.returncode is not None:
        return proc.returncode, 0.0
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def get(port: int, target: str) -> tuple[int, bytes]:
    """One GET on a new connection (set-up and checks, not timed)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get_json(port: int, target: str) -> dict:
    status, body = get(port, target)
    if status != 200:
        raise RuntimeError(f"GET {target} answered {status}")
    return json.loads(body)


@dataclass
class Reply:
    """One request of a closed-loop burst."""

    index: int
    target: str
    status: int
    seconds: float
    body: bytes | None


def closed_loop(port: int, targets: list[str], connections: int,
                keep: set[int] = frozenset()) -> tuple[list[Reply], float]:
    """Send ``targets`` over ``connections`` keep-alive connections,
    each sending its next request only after the previous reply.

    Returns the replies (bodies kept for indices in ``keep``) and the
    burst's wall time.  A transport error counts as status 0.
    """
    replies: list[Reply] = []
    lock = threading.Lock()
    cursor = iter(range(len(targets)))

    def client() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                target = targets[index]
                start = time.perf_counter()
                try:
                    conn.request("GET", target)
                    response = conn.getresponse()
                    body = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    body, status = b"", 0
                seconds = time.perf_counter() - start
                with lock:
                    replies.append(Reply(index, target, status, seconds,
                                         body if index in keep else None))
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies, time.perf_counter() - start
