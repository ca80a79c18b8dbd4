"""``edge_mixed``: an open loop of small requests over two connections.

Requests are due at a fixed rate (:data:`RATE` per second, below the
service's saturation point on a 2-core machine) in a seeded mix:

* ``new``: a new small path audit, made unique by its ``tolerance``
  (journal fsync and a store put on the write path);
* ``hit``: a resubmission of a finished request, answered from the cache;
* ``preview`` and ``findings``: ``GET /results/<key>`` and a
  ``/findings?page=`` page of a finished result;
* ``job``: ``GET /jobs/<id>`` of a finished job.

One keep-alive connection sends the scheduled requests; a second
connection polls the new jobs in flight until each is terminal, closing
after every poll so that no poll waits on a delayed acknowledgement
(see README.md).  Every latency runs from the moment its request was
due, so a stall also delays the requests queued behind it; how late the
sender ran is reported too.  A new job's latency ends at the
``finished_at`` its job reference records (the poller confirms it), so
the polling interval does not add to it; the due-to-seen time is
printed as well.

Oracle (outside every timed region): every resubmission answers
``cache_hit`` and its ``/raw`` bytes equal the original's; every new job
succeeds without a cache hit.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from common import (
    TERMINAL,
    BenchError,
    Client,
    Measurement,
    Tally,
    highest_supported,
    percentile,
    run_job,
)
from inputs import hiring, seed_of
from svc import ServicePhase

#: requests due per second.  A keep-alive request sent right after the
#: previous answer can cost ~45 ms (see README.md), so one sending
#: connection may saturate near 22/s; 16/s keeps it below that.
RATE = 16.0
MIX = (("new", 0.40), ("hit", 0.20), ("preview", 0.12), ("findings", 0.14),
       ("job", 0.14))
N_ROWS = 4_000
N_DATASETS = 4
N_WARM = 8
BASE_TOLERANCE = 0.05
POLL_S = 0.02
WANTED_TAIL = 90


def _body(path: str, tolerance: float) -> dict:
    return {"kind": "audit", "params": {"data": path},
            "config": {"tolerance": tolerance}}


def _schedule(seed: int, seconds: float):
    """``(due offset, kind, target index)`` for every scheduled request.

    The mix holds exact per-kind counts, shuffled by the seed, so every
    run of one length sends the same number of each kind.
    """
    rng = np.random.default_rng(seed_of(seed, 0, 3))
    n = int(RATE * seconds)
    counts = {kind: int(round(share * n)) for kind, share in MIX[1:]}
    counts["new"] = n - sum(counts.values())
    kinds = np.array([k for k, c in counts.items() for _ in range(c)])
    rng.shuffle(kinds)
    targets = rng.integers(0, 1 << 30, size=n)
    return [(i / RATE, str(kinds[i]), int(targets[i])) for i in range(n)]


class _Poller(threading.Thread):
    """Polls new jobs in flight on its own connection until terminal."""

    def __init__(self, port: int):
        super().__init__(daemon=True, name="edge-poller")
        self.client = Client(port)
        self.inflight: list[tuple] = []
        self.lock = threading.Lock()
        self.sending_done = threading.Event()
        self.finished: list[tuple] = []  # (due, seen, ref or None, status)

    def add(self, due: float, ref: dict) -> None:
        with self.lock:
            self.inflight.append((due, ref))

    def run(self) -> None:
        try:
            while True:
                with self.lock:
                    batch = list(self.inflight)
                if not batch:
                    if self.sending_done.is_set():
                        return
                    time.sleep(POLL_S)
                    continue
                for due, ref in batch:
                    status, polled = self.client.get_json(
                        ref["href"], headers={"Connection": "close"}
                    )
                    seen = time.perf_counter()
                    if status != 200 or polled["status"] in TERMINAL:
                        with self.lock:
                            self.inflight.remove((due, ref))
                        self.finished.append(
                            (due, seen, polled if status == 200 else None,
                             status)
                        )
                time.sleep(POLL_S)
        finally:
            self.client.close()


def measure(ctx, *, traced: bool, trials: int) -> Measurement:
    tally = Tally()
    phase = ServicePhase(ctx, traced=traced, trials=trials)
    paths = []
    lat: dict[str, list[float]] = {k: [] for k, _ in MIX}
    lateness, hits = [], []
    poller = None
    submitted = 0
    try:
        for index in range(N_DATASETS):
            dataset = hiring(ctx.seed, index, N_ROWS, 1.0)
            path = ctx.work / f"small-{index}.packed"
            phase.pack(dataset, path)
            paths.append(str(path))

        # warm-up (untimed): the finished requests that hits and reads target
        warm = []
        for index in range(N_WARM):
            body = _body(paths[index % N_DATASETS], BASE_TOLERANCE)
            body["config"]["tolerance"] += index * 1e-3
            status, ref, _ = run_job(phase.client, body, poll_s=POLL_S)
            if ref is None or ref["status"] != "succeeded":
                raise BenchError(f"warm-up job failed: {status} {ref}")
            phase.record("warm", ref)
            _, raw = phase.client.get(ref["result"] + "/raw")
            warm.append((body, ref, raw))

        poller = _Poller(phase.server.port)
        poller.start()
        sender = phase.client
        new_count = 0
        wall_offset = time.time() - time.perf_counter()
        start = time.perf_counter() + 0.05
        for offset, kind, target in _schedule(ctx.seed, ctx.seconds):
            due = start + offset
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            lateness.append((time.perf_counter() - due) * 1000.0)
            body, ref, raw = warm[target % N_WARM]
            if kind == "new":
                new_count += 1
                new_body = _body(
                    paths[target % N_DATASETS],
                    BASE_TOLERANCE + 0.5 + new_count * 1e-5,
                )
                status, answer = sender.post_json("/jobs", new_body)
                if tally.http(status, (201,)):
                    poller.add(due, answer)
                    submitted += 1
            elif kind == "hit":
                status, answer = sender.post_json("/jobs", body)
                if tally.http(status, (200,)):
                    hits.append((answer, raw))
            elif kind == "preview":
                status, _ = sender.get(ref["result"])
                tally.http(status, (200,))
            elif kind == "findings":
                page = 1 + target % 3
                status, _ = sender.get(
                    f"{ref['result']}/findings?page={page}&per_page=4"
                )
                tally.http(status, (200,))
            else:
                status, _ = sender.get(ref["href"])
                tally.http(status, (200,))
            lat[kind].append((time.perf_counter() - due) * 1000.0)
        sent_all = time.perf_counter()
        poller.sending_done.set()
        poller.join(timeout=120)
        if poller.is_alive():
            raise BenchError("new jobs never reached a terminal status")

        phase.probe.stop()
        for _ in range(submitted - len(poller.finished)):
            tally.mismatch("the poller lost track of a new job")
        job_ms, seen_ms = [], []
        for due, seen, final, status in poller.finished:
            seen_ms.append((seen - due) * 1000.0)
            if final is None or final["status"] != "succeeded":
                tally.mismatch(f"new job ended {status} "
                               f"{final and final['status']}")
            elif final["cache_hit"]:
                tally.mismatch("a unique request hit the cache")
            else:
                phase.record("new", final)
                done = final["finished_at"] - wall_offset
                slowdown = phase.probe.slowdown(due, done)
                job_ms.append((done - due) * 1000.0 / slowdown)
        answered = sum(len(v) for v in lat.values())
        elapsed = sent_all - start

        for answer, raw in hits:
            if not answer.get("cache_hit"):
                tally.mismatch("resubmission was not a cache hit")
                continue
            status, again = phase.client.get(answer["result"] + "/raw")
            if status != 200 or again != raw:
                tally.mismatch("cache hit /raw differs from the original")
    finally:
        if poller is not None:
            poller.sending_done.set()
        phase.close()

    m = Measurement(tally)
    tail = highest_supported(len(job_ms), WANTED_TAIL)
    job_p50 = percentile(job_ms, 50)
    setup_s, start_raw, pack_raw = phase.setup()
    m.headline = job_p50
    m.e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": phase.peak_rss_mb,
        "op_ms": job_p50,
        "op2_ms": percentile(job_ms, tail) if tail else max(job_ms),
        "work_per_s": answered / elapsed,
    }
    m.named = [
        ("setup_s", m.e2e["setup_s"], "s"),
        ("peak_rss_mb", phase.peak_rss_mb, "MB"),
        ("fail_ratio", tally.fail_ratio, "ratio"),
        ("edge.submit_ms_p50", percentile(lat["new"], 50),
         f"ms (n={len(lat['new'])})"),
        ("edge.hit_ms_p50", percentile(lat["hit"], 50),
         f"ms (n={len(lat['hit'])})"),
        ("edge.job_ms_p50", job_p50,
         f"ms at reference speed (n={len(job_ms)})"),
        (f"edge.job_ms_p{tail or 100}", m.e2e["op2_ms"],
         "ms at reference speed"),
        ("raw.edge.job_seen_ms_p50", percentile(seen_ms, 50),
         "ms, due to terminal status seen by the poller"),
        ("edge.read_ms_p50", percentile(lat["preview"] + lat["findings"], 50),
         f"ms (n={len(lat['preview']) + len(lat['findings'])})"),
        ("edge.requests_per_s", m.e2e["work_per_s"],
         f"1/s (offered {RATE:g})"),
        ("edge.lateness_ms_p50", percentile(lateness, 50), "ms"),
        ("edge.lateness_ms_max", max(lateness), "ms"),
    ]
    new_jobs = [(label, ref) for label, ref in phase.jobs if label == "new"]
    phase.jobs = new_jobs
    m.layers = phase.outside_metrics(len(new_jobs))
    if traced:
        layers, rows = phase.trace(len(new_jobs))
        m.layers.update(layers)
        m.rows = rows
        from selftime import shares

        share = shares(rows)
        edge = sum(
            share.get(layer, 0.0)
            for layer in ("service.httpd", "service.journal", "service.store")
        )
        m.claims.append((
            "httpd + journal + store is the largest share of new jobs",
            edge >= max(
                (v for k, v in share.items()
                 if k not in ("service.httpd", "service.journal",
                              "service.store")),
                default=0.0,
            ),
        ))
    return m
