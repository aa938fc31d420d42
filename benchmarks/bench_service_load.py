"""BENCH-SERVICE -- open-loop load on the sweep service.

Not a paper figure: the performance-trajectory tracker for the serving
layer (PR 9).  Boots an in-process :class:`~repro.service.SweepService`
(fresh temp store, TCP front end on an ephemeral port) and drives it
with an **open-loop** load generator: seeded Poisson arrivals over a
Zipf-weighted hot set of sweep specs, dispatched through a pool of
concurrent :class:`~repro.service.RemoteClient` connections.  Open
loop means arrivals do not wait for completions, so queueing delay
shows up in the latency numbers instead of throttling the offered
load.

Recorded into the ``"service"`` section of
``results/BENCH_parallel.json`` (read-modify-write -- the other
sections are left untouched)::

    python benchmarks/bench_service_load.py --requests 200 --rate 120

* throughput, hit rate, and p50/p95/p99 request latency split by
  store hit vs computed miss;
* the **single-flight gate** (hard exit gate): N concurrent
  submissions of one identical cold spec, over N separate
  connections, must execute the compute exactly once -- asserted via
  the store write counter *and* the service compute counter -- and
  every submitter must receive a bit-identical payload equal to a
  direct store-less :class:`~repro.api.Session` run;
* the **crash-recovery gate** (hard exit gate): a grid job whose
  scenario compute is killed mid-flight (injected
  ``BrokenProcessPool`` on the third scenario call) must emit a
  ``retry`` event, resume from its per-scenario checkpoint, and
  produce a payload bit-identical to an uninterrupted
  ``Session.grid``.

Gate failures exit nonzero; the load numbers are recorded, not
asserted (shared runners make wall-clock unreliable).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import random
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import repro.parallel.executor as executor_module
from repro.api import RunSpec, RuntimeProfile, Session
from repro.service import RemoteClient, ServiceClient, SweepServer, SweepService
from repro.store import ResultStore

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

GRID_SPEC = {
    "grid": {
        "factory": "dense_network",
        "axes": {"n_devices": [3, 4], "eta": [0.02, 0.03]},
    },
    "seed": 7,
}


def hot_set(size: int) -> list[dict]:
    """``size`` distinct, fast sweep specs (the serving hot set)."""
    return [
        {
            "pair": {"kind": "symmetric", "eta": 0.01 + 0.005 * (i % 4)},
            "samples": 16 + 4 * (i // 4),
            "horizon_multiple": 2,
        }
        for i in range(size)
    ]


def zipf_weights(n: int, s: float) -> list[float]:
    return [1.0 / (rank**s) for rank in range(1, n + 1)]


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


def latency_summary(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    return {
        "count": len(ordered),
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p95_ms": percentile(ordered, 0.95) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
    }


async def drive_load(
    port: int,
    specs: list[dict],
    *,
    requests: int,
    rate: float,
    connections: int,
    zipf_s: float,
    seed: int,
) -> dict:
    """The open-loop Poisson/Zipf run; returns the load section."""
    rng = random.Random(seed)
    weights = zipf_weights(len(specs), zipf_s)
    plan = []
    at = 0.0
    for _ in range(requests):
        at += rng.expovariate(rate)
        plan.append((at, rng.choices(range(len(specs)), weights)[0]))

    pool: asyncio.Queue = asyncio.Queue()
    for _ in range(connections):
        pool.put_nowait(await RemoteClient.connect("127.0.0.1", port))
    records: list[tuple[float, bool]] = []
    epoch = time.perf_counter()

    async def one(arrival_at: float, index: int) -> None:
        delay = arrival_at - (time.perf_counter() - epoch)
        if delay > 0:
            await asyncio.sleep(delay)
        arrived = time.perf_counter()
        client = await pool.get()
        try:
            response = await client.submit("sweep", specs[index])
        finally:
            pool.put_nowait(client)
        records.append((
            time.perf_counter() - arrived,
            response["job"]["source"] == "hit",
        ))

    started = time.perf_counter()
    await asyncio.gather(*(one(at, index) for at, index in plan))
    elapsed = time.perf_counter() - started
    while not pool.empty():
        await pool.get_nowait().close()

    hits = [latency for latency, hit in records if hit]
    misses = [latency for latency, hit in records if not hit]
    return {
        "requests": requests,
        "arrival_rate_hz": rate,
        "connections": connections,
        "hot_set_size": len(specs),
        "zipf_s": zipf_s,
        "seed": seed,
        "elapsed_seconds": elapsed,
        "throughput_rps": requests / elapsed,
        "hit_rate": len(hits) / len(records),
        "latency_hit": latency_summary(hits),
        "latency_miss": latency_summary(misses),
    }


async def gate_single_flight(
    service: SweepService, port: int, submitters: int
) -> dict:
    """N concurrent submissions of one cold spec over N connections:
    exactly one compute, one store write, identical payloads equal to
    a direct session run.  Hard exit gate."""
    fresh = {
        "pair": {"kind": "symmetric", "eta": 0.0225},
        "samples": 48,
        "horizon_multiple": 2,
    }
    writes_before = service.store.stats["writes"]
    computed_before = service._stats["computed"]

    clients = [
        await RemoteClient.connect("127.0.0.1", port)
        for _ in range(submitters)
    ]
    try:
        responses = await asyncio.gather(
            *(client.submit("sweep", fresh) for client in clients)
        )
    finally:
        for client in clients:
            await client.close()

    writes_delta = service.store.stats["writes"] - writes_before
    computed_delta = service._stats["computed"] - computed_before
    payloads = {
        json.dumps(r["result"]["payload"], sort_keys=True) for r in responses
    }
    with Session(RuntimeProfile()) as session:
        direct = session.sweep(RunSpec.from_dict(fresh))
    section = {
        "submitters": submitters,
        "store_writes_delta": writes_delta,
        "computed_delta": computed_delta,
        "distinct_payloads": len(payloads),
        "matches_direct_session": (
            payloads == {json.dumps(direct.payload, sort_keys=True)}
        ),
    }
    ok = (
        writes_delta == 1
        and computed_delta == 1
        and len(payloads) == 1
        and section["matches_direct_session"]
    )
    section["passed"] = ok
    if not ok:
        raise SystemExit(f"single-flight gate FAILED: {section}")
    return section


async def gate_crash_recovery(service: SweepService) -> dict:
    """A grid whose third scenario call dies with BrokenProcessPool
    must retry, resume from its checkpoint, and match an
    uninterrupted ``Session.grid`` bit-for-bit.  Hard exit gate."""
    real = executor_module._network_one
    calls = {"n": 0}

    def flaky(config, item):
        calls["n"] += 1
        if calls["n"] == 3:
            raise BrokenProcessPool("injected pool-child crash")
        return real(config, item)

    executor_module._network_one = flaky
    try:
        client = ServiceClient(service)
        job = await client.submit("grid", GRID_SPEC, wait=False)
        result = await job.wait()
    finally:
        executor_module._network_one = real

    with Session(RuntimeProfile()) as session:
        direct = session.grid(RunSpec.from_dict(GRID_SPEC))
    kinds = [event["kind"] for event in job.events]
    section = {
        "scenario_calls": calls["n"],
        "attempts": job.attempts,
        "retry_events": kinds.count("retry"),
        "payload_identical_to_direct": result.payload == direct.payload,
    }
    ok = (
        section["retry_events"] >= 1
        and section["attempts"] == 2
        and section["payload_identical_to_direct"]
        # 4 scenarios: 2 + the crashed call on attempt 1, the missing
        # 2 on attempt 2 -- 5 proves resume, 8 would mean restart.
        and section["scenario_calls"] == 5
    )
    section["passed"] = ok
    if not ok:
        raise SystemExit(f"crash-recovery gate FAILED: {section}")
    return section


async def run(args: argparse.Namespace, store_root: Path) -> dict:
    store = ResultStore(store_root)
    service = SweepService(
        RuntimeProfile(),
        store=store,
        workers=args.workers,
        queue_limit=max(args.requests, 64),
        retry_backoff=0.02,
    )
    await service.start()
    server = await SweepServer(service, port=0).start()
    try:
        load = await drive_load(
            server.port,
            hot_set(args.hot_set),
            requests=args.requests,
            rate=args.rate,
            connections=args.connections,
            zipf_s=args.zipf_s,
            seed=args.seed,
        )
        single_flight = await gate_single_flight(
            service, server.port, args.submitters
        )
        crash = await gate_crash_recovery(service)
        counters = service.stats()["service"]
    finally:
        await server.stop()
        await service.stop()
    return {
        "experiment": "BENCH-SERVICE",
        "workers": args.workers,
        "load": load,
        "single_flight": single_flight,
        "crash_recovery": crash,
        "counters": {
            key: counters[key]
            for key in (
                "submitted", "hits", "coalesced", "computed",
                "completed", "failed", "retries", "requeued",
            )
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--rate", type=float, default=120.0,
                        help="Poisson arrival rate (requests/second)")
    parser.add_argument("--connections", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--hot-set", type=int, default=12)
    parser.add_argument("--zipf-s", type=float, default=1.1)
    parser.add_argument("--submitters", type=int, default=8,
                        help="concurrent cold submitters in the "
                        "single-flight gate")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--output", default=str(RESULTS_DIR / "BENCH_parallel.json")
    )
    args = parser.parse_args(argv)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        section = asyncio.run(run(args, Path(tmp) / "store"))

    load = section["load"]
    print(
        f"load          : {load['requests']} requests at "
        f"{load['arrival_rate_hz']:.0f}/s offered, "
        f"{load['throughput_rps']:.0f}/s served, "
        f"hit rate {load['hit_rate']:.2f}"
    )
    for kind in ("hit", "miss"):
        lat = load[f"latency_{kind}"]
        print(
            f"latency {kind:4} : p50 {lat['p50_ms']:.2f} ms, "
            f"p95 {lat['p95_ms']:.2f} ms, p99 {lat['p99_ms']:.2f} ms "
            f"({lat['count']} requests)"
        )
    sf = section["single_flight"]
    print(
        f"single-flight : {sf['submitters']} submitters -> "
        f"{sf['computed_delta']} compute, {sf['store_writes_delta']} "
        f"store write, identical payloads: "
        f"{sf['distinct_payloads'] == 1} [gate PASSED]"
    )
    cr = section["crash_recovery"]
    print(
        f"crash recovery: {cr['scenario_calls']} scenario calls, "
        f"{cr['attempts']} attempts, resumed payload identical: "
        f"{cr['payload_identical_to_direct']} [gate PASSED]"
    )

    output = Path(args.output)
    payload = {}
    if output.exists():
        payload = json.loads(output.read_text(encoding="utf-8"))
    payload["service"] = section
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
