"""Shared plumbing for the outside-in service benchmark.

Everything here talks to the program from outside: it spawns
``repro serve`` (or the monitor host) as a child process, drives it over
HTTP or pipes, reads ``/proc/<pid>/status`` for memory, and turns raw
samples into the reported statistics.  Nothing in this module changes
the program under test.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
BOOT = BENCH_DIR / "boot.py"
PROBE = BENCH_DIR / "probe.py"

#: the speed probe's slice on an undisturbed CPU of the reference
#: machine (2-vCPU Xeon VM); see :class:`SpeedProbe`
PROBE_REF_S = 0.0008

#: metric names as the result line and BENCHMARK.json spell them
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: a percentile is reported only when at least this many samples lie
#: beyond it; otherwise the next lower supported percentile is used
TAIL_SUPPORT = 10


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a dead child...)."""


def require_sources() -> None:
    """Put the checkout's ``src/`` on ``sys.path`` or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def place_processes() -> tuple[int | None, int | None]:
    """Pin the system under test to one CPU and this process to the others.

    A child the kernel migrates between CPUs meets a different mix of
    other tenants' load and of interrupt handling (the block device's
    completions arrive on one CPU) from one run to the next.  The
    highest-numbered CPU goes to the system under test, so every run on
    one machine sees the same placement; :class:`SpeedProbe` takes care
    of how fast that CPU happens to run.  Returns ``(system CPU,
    benchmark CPU)``; either is ``None`` when it is not a single CPU (a
    one-CPU machine, or more than two CPUs).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    chosen, rest = cpus[-1], cpus[:-1]
    os.sched_setaffinity(0, set(rest))
    return chosen, (rest[0] if len(rest) == 1 else None)


def pinned(cpu: int | None):
    """A ``preexec_fn`` that pins a child process to ``cpu``."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# -- statistics ---------------------------------------------------------------


def check_metric_name(name: str) -> str:
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the
    nearest-rank ``q``-th percentile (``q`` in percent)."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q / 100.0 * n))


def supported(n: int, q: float) -> bool:
    return samples_beyond(n, q) >= TAIL_SUPPORT


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; refuses a tail the samples cannot support.

    The median (``q == 50``) is always allowed: it is the statistic the
    benchmark reports for every timing, with its sample count.
    """
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    if q != 50 and not supported(len(data), q):
        raise ValueError(
            f"p{q:g} needs {TAIL_SUPPORT} samples beyond it; "
            f"{len(data)} samples give {samples_beyond(len(data), q)}"
        )
    if q == 50:
        return float(statistics.median(data))
    return float(data[max(1, math.ceil(q / 100.0 * len(data))) - 1])


def highest_supported(n: int, wanted: float, fallbacks=(99, 95, 90, 75)):
    """The highest percentile <= ``wanted`` that ``n`` samples support,
    or ``None``."""
    for q in sorted({wanted, *fallbacks}, reverse=True):
        if q <= wanted and supported(n, q):
            return q
    return None


class Tally:
    """Operations attempted and failed, with why each failure counted.

    A refused request (HTTP 429), an error and a wrong answer all count
    as failed operations.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}
        self.notes: list[str] = []

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, note: str = "") -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if note and len(self.notes) < 20:
            self.notes.append(f"{reason}: {note}")

    def http(self, status: int, expected=(200, 201)) -> bool:
        """Count one HTTP exchange; returns whether it succeeded."""
        if status in expected:
            self.ok()
            return True
        self.fail("refused" if status == 429 else "error", f"HTTP {status}")
        return False

    def mismatch(self, note: str) -> None:
        """An answer that came back but was wrong.

        The operation was already counted when it was sent, so only the
        failure is added.
        """
        self.failed += 1
        self.reasons["wrong"] = self.reasons.get("wrong", 0) + 1
        if len(self.notes) < 20:
            self.notes.append(f"wrong: {note}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for key, value in other.reasons.items():
            self.reasons[key] = self.reasons.get(key, 0) + value
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])


# -- child processes ----------------------------------------------------------


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def stop_process(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """SIGTERM, wait, SIGKILL as a last resort; always reaps the child."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()
    return proc.returncode


class SpeedProbe:
    """How slow the CPU under test ran, sampled while operations run.

    Starts ``probe.py`` on the CPU of the system under test.  Dividing
    an operation's measured time by :meth:`slowdown` over its interval
    expresses it at the reference speed (:data:`PROBE_REF_S`), which
    removes most of what other tenants add and keeps what the program
    itself costs.  Both the raw and the scaled times are reported.
    """

    def __init__(self, work: Path, cpu: int | None, name: str = "sut"):
        self.path = work / f"probe-{name}.json"
        cmd = [sys.executable, str(PROBE), "--out", str(self.path)]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        self.proc = subprocess.Popen(
            cmd, cwd=str(CHECKOUT), env=child_env(), stdout=subprocess.PIPE,
            text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            stop_process(self.proc)
            raise BenchError("speed probe did not start")
        self.samples: list[tuple[float, float]] = []

    def stop(self) -> None:
        """Stop sampling and load the samples (a second call is a no-op)."""
        if self.proc is None:
            return
        stop_process(self.proc)
        self.proc = None
        with open(self.path, encoding="utf-8") as handle:
            self.samples = [tuple(row) for row in json.load(handle)]

    def slowdown(self, lo: float, hi: float) -> float:
        """Median probe slice over [lo, hi] relative to the reference."""
        inside = [d for t, d in self.samples if lo <= t <= hi]
        if len(inside) < 5:
            # a short interval: use the samples nearest to its middle
            mid = (lo + hi) / 2
            nearest = sorted(self.samples, key=lambda row: abs(row[0] - mid))
            inside = [d for _, d in nearest[:5]]
        if not inside:
            raise BenchError("the speed probe recorded no samples")
        return statistics.median(inside) / PROBE_REF_S


class Server:
    """One ``repro serve`` child over a fresh state root.

    ``spans`` launches it through the tracing bootstrap instead, which
    wraps the layers' entry points and writes its spans to that path at
    shutdown.
    """

    def __init__(self, root: Path, *, spans: Path | None = None,
                 cpu: int | None = None):
        self.root = Path(root)
        self.spans = spans
        self.cpu = cpu
        self.proc: subprocess.Popen | None = None
        self.port = 0
        #: (start, end) of the last start, on the perf_counter clock
        self.started = (0.0, 0.0)
        self.peak_rss_mb = 0.0

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait for ``/healthz``; returns the seconds it took."""
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        serve = ["serve", "--root", str(self.root), "--port", "0"]
        if self.spans is None:
            cmd = [sys.executable, "-m", "repro", *serve]
        else:
            cmd = [sys.executable, str(BOOT), "--spans", str(self.spans),
                   *serve]
        log = open(self.root.parent / f"{self.root.name}.stderr", "w")
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(CHECKOUT), env=child_env(), stdout=subprocess.PIPE,
            stderr=log, text=True, preexec_fn=pinned(self.cpu),
        )
        log.close()
        line = self.proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if not match:
            self.stop()
            raise BenchError(f"repro serve did not start: {line!r}")
        self.port = int(match.group(1))
        client = Client(self.port)
        try:
            while True:
                try:
                    status, _ = client.get("/healthz")
                    if status == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - began > timeout:
                    self.stop()
                    raise BenchError("repro serve never became healthy")
                time.sleep(0.005)
        finally:
            client.close()
        self.started = (began, time.perf_counter())
        return self.started[1] - began

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.peak_rss_mb = vm_hwm_mb(self.proc.pid)
        code = stop_process(self.proc)
        self.proc = None
        if code not in (0, -signal.SIGTERM):
            raise BenchError(f"repro serve exited with code {code}")

    def disk_bytes(self) -> dict:
        """On-disk size of the journal and the result store.

        ``checkpoints/`` is left out: the engine deletes a job's resume
        state when the job succeeds, so it does not grow; the traced
        ``robustness.checkpoint.bytes`` counts what checkpoints wrote.
        """
        def size(path: Path) -> int:
            if path.is_file():
                return path.stat().st_size
            return sum(
                p.stat().st_size for p in path.rglob("*") if p.is_file()
            )
        return {
            "journal": size(self.root / "journal.jsonl"),
            "results": size(self.root / "results"),
        }


def start_service(
    work: Path, trials: int = 3, cpu: int | None = None
) -> tuple[Server, list[tuple[float, float]]]:
    """Cold-start the service ``trials`` times; keep the last one running.

    Each start gets a fresh root.  Returns the running server and the
    ``(start, end)`` of every start, so set-up can be reported as a
    median.
    """
    intervals = []
    for trial in range(trials):
        server = Server(work / f"root{trial}", cpu=cpu)
        server.start()
        intervals.append(server.started)
        if trial < trials - 1:
            server.stop()
            shutil.rmtree(server.root, ignore_errors=True)
    return server, intervals


class Client:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, port: int, timeout: float = 120.0):
        self.port = port
        self.timeout = timeout
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=timeout
        )

    def request(self, method: str, path: str, body=None, headers=None):
        payload = None if body is None else json.dumps(body).encode()
        hdrs = {"Content-Type": "application/json"} if payload else {}
        hdrs.update(headers or {})
        try:
            self.conn.request(method, path, body=payload, headers=hdrs)
            response = self.conn.getresponse()
            data = response.read()
        except (http.client.HTTPException, OSError):
            # reconnect once: the server may have closed an idle socket
            self.conn.close()
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout
            )
            self.conn.request(method, path, body=payload, headers=hdrs)
            response = self.conn.getresponse()
            data = response.read()
        return response.status, data

    def get(self, path: str, headers=None):
        return self.request("GET", path, headers=headers)

    def get_json(self, path: str, headers=None):
        status, data = self.get(path, headers=headers)
        return status, (json.loads(data) if data else None)

    def post_json(self, path: str, body):
        status, data = self.request("POST", path, body=body)
        return status, (json.loads(data) if data else None)

    def metrics(self) -> dict:
        status, data = self.get_json(
            "/metrics", headers={"Accept": "application/json"}
        )
        if status != 200:
            raise BenchError(f"/metrics answered {status}")
        return data

    def close(self) -> None:
        self.conn.close()


TERMINAL = ("succeeded", "failed", "cancelled", "interrupted")


def perf_interval(ref: dict) -> tuple[float, float]:
    """A job reference's run interval on the ``perf_counter`` clock."""
    offset = time.perf_counter() - time.time()
    return ref["started_at"] + offset, ref["finished_at"] + offset


def run_job(client: Client, body: dict, poll_s: float = 0.01):
    """Submit one job and poll it to a terminal status.

    Returns ``(http status of the submit, final job ref or None, seconds
    from submit to the terminal status being seen)``.
    """
    began = time.perf_counter()
    status, ref = client.post_json("/jobs", body)
    if status not in (200, 201):
        return status, None, time.perf_counter() - began
    while ref["status"] not in TERMINAL:
        time.sleep(poll_s)
        poll_status, polled = client.get_json(ref["href"])
        if poll_status != 200:
            return poll_status, None, time.perf_counter() - began
        ref = polled
    return status, ref, time.perf_counter() - began


# -- the result line ----------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def result_line(tally: Tally, metrics: dict, correct: bool) -> str:
    for name in metrics:
        check_metric_name(name)
    return json.dumps({
        "correct": bool(correct) and tally.failed == 0,
        "attempted": int(max(1, tally.attempted)),
        "failed": int(tally.failed),
        "metrics": metrics,
    }, sort_keys=True)


def print_table(title: str, rows) -> None:
    """The human-readable metric table every run prints before its
    result line (stdout, so the result line stays last)."""
    print(f"== {title}")
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {shown:>14} {unit}")
    sys.stdout.flush()


class Measurement:
    """What one measured phase of a workload produced.

    ``named`` lists the workload's own metrics as ``(name, value,
    unit)``; ``e2e`` fills the catalogue's end-to-end slots; ``layers``
    holds per-layer values (outside counters always, trace-derived ones
    only in a traced phase); ``rows`` are the traced per-operation layer
    breakdowns and ``claims`` what the trace says about where time went.
    """

    def __init__(self, tally: Tally):
        self.tally = tally
        self.named: list[tuple] = []
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.rows: list[tuple] = []
        self.claims: list[tuple[str, bool]] = []
        #: the headline latency, compared traced vs untraced
        self.headline = 0.0

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0
