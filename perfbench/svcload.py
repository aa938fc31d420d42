"""The service-zipf workload: a ``repro-nd serve`` daemon under load.

Set-up fills a fresh store with the seeded hot set through a
store-backed ``Session``, then starts the daemon five times from cold
(spawn to first answered ``stats``); the last keeps running.  Two
phases follow, over two TCP connections:

* an **open loop**: Poisson arrivals at :data:`RATE` per second, each
  timed from when it was due.  Connection A carries store hits, Zipf
  weighted over a hot set larger than the store's memory LRU, so both
  memory and disk hits occur.  Connection B carries the cold misses:
  unique cheap sweeps, budgeted worst cases, and slower sweeps that B
  submits without waiting and A submits again while B's copy is still
  computing, which the daemon must single-flight onto one job;
* a **closed loop**: both connections send hits back to back, which
  measures capacity.

Every hit payload must equal what set-up stored, and a seeded sample of
misses must equal a direct ``Session`` result.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import os
import random
import re
import shutil
import signal
import sys
import time

import common
import inputs

RATE = 200.0            # open-loop arrivals per second
MISS_MIX = (("sweep", 0.03), ("wc", 0.02), ("dup", 0.01))
MISS_SAMPLE = 6         # misses re-computed directly for the check
STARTS = 5              # cold daemon starts per run
CLOSED_BLOCKS = 8       # capacity is the median over this many blocks


def _frame_bytes(response: dict) -> int:
    return len(json.dumps(response, separators=(",", ":"))) + 1


class Connection:
    """One client connection; remembers the server-side position (seq)
    of every request, to pair it with the daemon's span."""

    def __init__(self, client, port: int) -> None:
        self.client = client
        self.port = port
        self.seq = -1

    async def request(self, payload: dict):
        self.seq += 1
        return self.seq, await self.client.request(payload)


async def _connect(port: int) -> Connection:
    from repro.service import MAX_FRAME_BYTES, RemoteClient

    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=MAX_FRAME_BYTES
    )
    return Connection(RemoteClient(reader, writer),
                      writer.get_extra_info("sockname")[1])


def _cpus():
    """(daemon CPU, load-generator CPU), or Nones on a one-CPU host.

    Pinning the two apart keeps the scheduler from placing them on one
    CPU in some runs and on two in others, which changed the hits'
    tail latency by half from run to run."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= 2 else (None, None)


async def _start_daemon(work, store, trace: int, index: int):
    """(process, port, seconds from spawn to the first answered stats)."""
    report = work / f"daemon-{index}.json"
    cpu = _cpus()[0]
    pin = [] if cpu is None else ["--cpu", str(cpu)]
    start = time.perf_counter()
    with open(work / f"daemon-{index}.err", "wb") as stderr:
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(common.HERE / "daemon.py"),
            "--report", str(report), "--trace", str(trace), *pin, "--",
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--store", str(store), "--workers", "2",
            cwd=str(common.ROOT), env=common.child_env(),
            stdout=asyncio.subprocess.PIPE, stderr=stderr,
        )
    try:
        port = None
        while port is None:
            line = await asyncio.wait_for(proc.stdout.readline(), 60)
            if not line:
                raise RuntimeError(
                    "daemon exited before listening: "
                    + (work / f"daemon-{index}.err").read_text()[-2000:]
                )
            match = re.search(rb"listening on [^:\s]+:(\d+)", line)
            if match:
                port = int(match.group(1))
        probe = await _connect(port)
        await probe.request({"op": "stats"})
        ready = time.perf_counter() - start
        await probe.client.close()
    except BaseException:
        if proc.returncode is None:
            proc.kill()
        await proc.wait()
        raise
    return proc, port, report, ready


async def _stop_daemon(proc) -> None:
    if proc.returncode is None:
        proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(proc.communicate(), 60)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()


def _zipf_sampler(rng: random.Random, size: int):
    weights = [1.0 / (rank + 1) ** inputs.ZIPF_S for rank in range(size)]
    cumulative = []
    total = 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    return lambda: bisect.bisect_left(cumulative, rng.random() * total)


def _submit(verb: str, spec: dict, wait: bool = True) -> dict:
    return {"op": "submit", "verb": verb, "spec": spec, "wait": wait}


async def run(seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    work = common.OUT / f"svc-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return await _run(seed, seconds, trace, smoke, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


async def _run(seed, seconds, trace, smoke, work):
    from repro.api import Session
    from repro.store import ResultStore

    store_dir = work / "store"
    hot = inputs.hot_specs(seed, 40 if smoke else inputs.HOT_SET)
    t0 = time.perf_counter()
    with Session(store=ResultStore(store_dir)) as session:
        expected = [
            inputs.digest(json.loads(json.dumps(session.sweep(spec).payload)))
            for spec in hot
        ]
        backend = session.backend_name
    populate_s = time.perf_counter() - t0

    ready = []
    for index in range(STARTS):
        started = time.perf_counter()
        proc, port, report_path, seconds_to_ready = await _start_daemon(
            work, store_dir, trace, index
        )
        ready.append((started, seconds_to_ready))
        if index < STARTS - 1:
            await _stop_daemon(proc)
    # The load generator keeps every response for the checks; with the
    # cyclic collector on, its pauses would read as daemon latency.
    gc.disable()
    affinity = os.sched_getaffinity(0)
    client_cpu = _cpus()[1]
    if client_cpu is not None:
        os.sched_setaffinity(0, {client_cpu})
    try:
        result = await _load(seed, seconds, trace, smoke, port, hot,
                             proc.pid)
    finally:
        os.sched_setaffinity(0, affinity)
        gc.enable()
        await _stop_daemon(proc)
    with open(report_path, encoding="utf-8") as handle:
        daemon_report = json.load(handle)

    # Correctness (untimed).
    errors = list(result["errors"])
    for record in result["hits"]:
        payload = record.pop("payload")
        if inputs.digest(payload) != expected[record["rank"]]:
            errors.append(f"hit rank {record['rank']}: payload differs "
                          f"from what set-up stored")
    checked = random.Random(f"miss-check:{seed}").sample(
        result["misses"], min(MISS_SAMPLE, len(result["misses"]))
    )
    with Session() as direct:
        for record in checked:
            want = getattr(direct, record["verb"])(record["spec"]).payload
            if inputs.digest(json.loads(json.dumps(want))) != record["digest"]:
                errors.append(f"miss {record['verb']} {record['spec']}: "
                              f"payload differs from a direct Session run")
    result.update(
        errors=errors,
        setup_runs=ready,
        populate_s=populate_s,
        maxrss_mb=daemon_report["maxrss_mb"],
        backend=backend,
        daemon_spans=[tuple(s) for s in daemon_report.get("spans", ())],
        span_cost_s=daemon_report.get("span_cost_s", 0.0),
    )
    return result


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU time of process ``pid`` (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


async def _load(seed, seconds, trace, smoke, port, hot, pid) -> dict:
    rng = random.Random(f"service-zipf:{seed}")
    zipf = _zipf_sampler(rng, len(hot))
    next_miss = inputs.miss_specs(seed)
    a = await _connect(port)
    b = await _connect(port)
    requests = []       # (conn port, seq, kind, due, sent, received)
    hits, misses, errors, samples = [], [], [], []
    late = []
    counts = {"dup_admissions": 0, "dup_coalesced": 0}

    async def hit(conn: Connection, due: float) -> None:
        rank = zipf()
        sent = time.perf_counter()
        try:
            seq, response = await conn.request(_submit("sweep", hot[rank]))
        except Exception as exc:
            errors.append(f"hit rank {rank}: {type(exc).__name__}: {exc}")
            return
        received = time.perf_counter()
        requests.append((conn.port, seq, "hit", due, sent, received,
                         _frame_bytes(response)))
        hits.append({"rank": rank,
                     "payload": response["result"]["payload"],
                     "lookup_s": response["store_meta"]["lookup_seconds"],
                     "hit": response["store_meta"]["hit"]})

    async def sample_stats() -> None:
        _seq, response = await b.request({"op": "stats"})
        samples.append(response["stats"]["service"])

    # Warm-up: fill the daemon's memory LRU the way the load will.
    for _ in range(60 if smoke else 2 * len(hot)):
        await hit(a, time.perf_counter())
    del requests[:], hits[:]
    await sample_stats()
    before = samples.pop()

    queue_a: asyncio.Queue = asyncio.Queue()
    queue_b: asyncio.Queue = asyncio.Queue()

    async def miss(item, due: float) -> None:
        kind = item[0]
        verb, spec = next_miss(kind)
        sent = time.perf_counter()
        try:
            if kind == "dup":
                seq, admitted = await b.request(_submit(verb, spec, False))
                job_id = admitted["job"]["id"]
                queue_a.put_nowait((("admit", verb, spec, job_id),
                                    time.perf_counter()))
                seq, response = await b.request({"op": "result",
                                                 "id": job_id})
            else:
                seq, response = await b.request(_submit(verb, spec))
        except Exception as exc:
            errors.append(f"miss {verb} {spec}: {type(exc).__name__}: {exc}")
            return
        received = time.perf_counter()
        requests.append((b.port, seq, "miss", due, sent, received,
                         _frame_bytes(response)))
        job = response["job"]
        misses.append({"verb": verb, "spec": spec, "kind": kind,
                       "digest": inputs.digest(response["result"]["payload"]),
                       "queued_s": job["queued_seconds"],
                       "run_s": job["run_seconds"],
                       "source": job["source"],
                       "provenance": response["result"]["payload"].get(
                           "provenance")})
        if trace:
            await sample_stats()

    async def admit(item) -> None:
        _kind, verb, spec, job_id = item
        counts["dup_admissions"] += 1
        try:
            _seq, response = await a.request(_submit(verb, spec, False))
        except Exception as exc:
            errors.append(f"duplicate {spec}: {type(exc).__name__}: {exc}")
            return
        job = response["job"]
        if job["id"] == job_id:
            counts["dup_coalesced"] += 1
        elif job["source"] != "hit":
            errors.append(f"duplicate {spec} started a second compute "
                          f"({job['id']} besides {job_id})")

    async def serve(queue: asyncio.Queue, conn: Connection) -> None:
        while True:
            item, due = await queue.get()
            if item is None:
                return
            if item == "hit":
                await hit(conn, due)
            elif item[0] == "admit":
                await admit(item)
            else:
                await miss(item, due)

    # Poisson arrivals conditioned on their count: RATE * open_s
    # uniform arrival times, with fixed numbers of each miss kind in
    # seeded positions, so every seed offers the same mix.
    open_s = 1.0 if smoke else 0.8 * seconds
    total = round(RATE * open_s)
    items = ["hit"] * total
    position = 0
    for kind, share in MISS_MIX:
        for _ in range(max(1, round(share * total))):
            items[position] = (kind,)
            position += 1
    rng.shuffle(items)
    schedule = sorted(zip((rng.uniform(0, open_s) for _ in items),
                          items), key=lambda pair: pair[0])

    workers = [asyncio.create_task(serve(queue_a, a)),
               asyncio.create_task(serve(queue_b, b))]
    start = time.perf_counter()
    cpu0 = _cpu_seconds(pid)
    for offset, item in schedule:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(time.perf_counter() - due)
        (queue_a if item == "hit" else queue_b).put_nowait((item, due))
    queue_b.put_nowait((None, None))
    await workers[1]
    queue_a.put_nowait((None, None))
    await workers[0]
    window = (start, time.perf_counter())
    daemon_cpu_s = _cpu_seconds(pid) - cpu0
    open_hits = len(hits)
    await sample_stats()
    after = samples.pop()
    open_requests = list(requests)

    # Closed loop: both connections send hits back to back; capacity
    # is the median completion rate over CLOSED_BLOCKS equal blocks.
    closed_s = 0.5 if smoke else 0.2 * seconds
    block_s = closed_s / CLOSED_BLOCKS
    rates = []
    for _ in range(CLOSED_BLOCKS):
        done = [0]

        async def closed(conn: Connection, deadline: float) -> None:
            while time.perf_counter() < deadline:
                await hit(conn, time.perf_counter())
                done[0] += 1

        block_start = time.perf_counter()
        await asyncio.gather(closed(a, block_start + block_s),
                             closed(b, block_start + block_s))
        rates.append(done[0] / (time.perf_counter() - block_start))
    capacity = common.median(rates)
    await a.client.close()
    await b.client.close()

    counters = {key: after[key] - before[key]
                for key in ("hits", "coalesced", "computed", "retries",
                            "timeouts", "failed")}
    return {
        "requests": open_requests,
        "hits": hits,
        "misses": misses,
        "errors": errors,
        "late": late,
        "sent": len(schedule),
        "capacity_rps": capacity,
        "counters": counters,
        "queue_depth_max": max(
            [s["queue_depth"] for s in samples] + [0]),
        "counts": counts,
        "window": window,
        "daemon_cpu_s": daemon_cpu_s,
        "open_hits": open_hits,
        "ports": (a.port, b.port),
    }
