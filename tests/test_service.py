"""The sweep service: single-flight dedup, bounded priority dispatch,
crash recovery with grid checkpointing, and the JSON-lines wire
protocol."""

import asyncio
import json
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.service.service as service_module
from repro.api import RunSpec, RuntimeProfile, Session, SpecError
from repro.campaign import Campaign
from repro.service import (
    Job,
    JobFailed,
    ProtocolError,
    RemoteClient,
    RemoteError,
    ServiceClient,
    ServiceOverload,
    SweepServer,
    SweepService,
)
from repro.store import ResultStore

SWEEP_SPEC = {
    "pair": {"kind": "symmetric", "eta": 0.01},
    "samples": 16,
    "horizon_multiple": 2,
}

GRID_SPEC = {
    "grid": {
        "factory": "dense_network",
        "axes": {"n_devices": [3, 4], "eta": [0.02, 0.03]},
    },
    "seed": 7,
}


def sweep_spec(eta: float) -> dict:
    spec = dict(SWEEP_SPEC)
    spec["pair"] = dict(spec["pair"], eta=eta)
    return spec


def run(coro):
    return asyncio.run(coro)


async def make_service(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("retry_backoff", 0.01)
    store = ResultStore(tmp_path / "store")
    return SweepService(RuntimeProfile(), store=store, **kwargs), store


# ----------------------------------------------------------------------
# Single-flight (the tentpole property)
# ----------------------------------------------------------------------


class TestSingleFlight:
    def test_n_submissions_one_compute_identical_results(self, tmp_path):
        async def main():
            service, store = await make_service(tmp_path)
            # Admit 6 identical cold specs *before* the workers start:
            # admission must coalesce deterministically, not by racing.
            jobs = [service.submit("sweep", SWEEP_SPEC) for _ in range(6)]
            assert len({job.id for job in jobs}) == 1
            assert jobs[0].coalesced == 5
            assert len(service._inflight) == 1
            await service.start()
            results = await asyncio.gather(*(job.wait() for job in jobs))
            await service.stop()
            return service, store, jobs[0], results

        service, store, job, results = run(main())
        # Exactly one compute and one store write for the 6 waiters.
        assert service._stats["computed"] == 1
        assert store.stats["writes"] == 1
        assert job.source == "computed"
        # All waiters see bit-identical results, as private clones.
        serialized = [json.dumps(r.to_dict(), sort_keys=True) for r in results]
        assert len(set(serialized)) == 1
        assert len({id(r) for r in results}) == len(results)
        assert len({id(r.payload) for r in results}) == len(results)

    def test_served_result_equals_direct_session_compute(self, tmp_path):
        async def main():
            service, _ = await make_service(tmp_path)
            await service.start()
            result = await service.submit("sweep", SWEEP_SPEC).wait()
            await service.stop()
            return result

        served = run(main())
        with Session(RuntimeProfile()) as session:
            direct = session.sweep(RunSpec.from_dict(SWEEP_SPEC))
        assert served.payload == direct.payload
        assert served.verb == direct.verb and served.spec == direct.spec

    def test_warm_store_is_answered_without_queueing(self, tmp_path):
        async def main():
            service, store = await make_service(tmp_path)
            await service.start()
            await service.submit("sweep", SWEEP_SPEC).wait()
            computed = service._stats["computed"]
            job = service.submit("sweep", SWEEP_SPEC)
            assert job.state == "done" and job.source == "hit"
            result = await job.wait()
            assert result.store_meta["hit"] is True
            assert service._stats["computed"] == computed  # no new compute
            assert service._stats["hits"] == 1
            await service.stop()

        run(main())

    def test_distinct_specs_do_not_coalesce(self, tmp_path):
        async def main():
            service, store = await make_service(tmp_path)
            jobs = [
                service.submit("sweep", sweep_spec(eta))
                for eta in (0.01, 0.02, 0.03)
            ]
            assert len({job.id for job in jobs}) == 3
            await service.start()
            await asyncio.gather(*(job.wait() for job in jobs))
            await service.stop()
            assert service._stats["computed"] == 3
            assert store.stats["writes"] == 3

        run(main())

    def test_storeless_service_always_computes(self, tmp_path):
        async def main():
            service = SweepService(
                RuntimeProfile(), store=None, workers=1, retry_backoff=0.01
            )
            jobs = [service.submit("sweep", SWEEP_SPEC) for _ in range(2)]
            assert len({job.id for job in jobs}) == 2  # no dedup without a store
            await service.start()
            await asyncio.gather(*(job.wait() for job in jobs))
            await service.stop()
            assert service._stats["computed"] == 2

        run(main())


# ----------------------------------------------------------------------
# Dispatch: priority, bounded admission, verbs
# ----------------------------------------------------------------------


class TestDispatch:
    def test_priority_orders_execution(self, tmp_path):
        async def main():
            service, _ = await make_service(tmp_path, workers=1)
            low = service.submit("sweep", sweep_spec(0.01), priority=0)
            high = service.submit("sweep", sweep_spec(0.02), priority=5)
            mid = service.submit("sweep", sweep_spec(0.03), priority=1)
            await service.start()
            await asyncio.gather(low.wait(), high.wait(), mid.wait())
            await service.stop()
            assert service.execution_order == [high.id, mid.id, low.id]

        run(main())

    def test_full_queue_raises_overload(self, tmp_path):
        async def main():
            service, _ = await make_service(tmp_path, queue_limit=2)
            service.submit("sweep", sweep_spec(0.01))
            service.submit("sweep", sweep_spec(0.02))
            with pytest.raises(ServiceOverload, match="queue is full"):
                service.submit("sweep", sweep_spec(0.03))
            # Identical resubmission still coalesces: dedup needs no slot.
            job = service.submit("sweep", sweep_spec(0.01))
            assert job.coalesced == 1
            await service.start()
            await job.wait()
            await service.stop()

        run(main())

    def test_unknown_verb_and_bad_spec_rejected(self, tmp_path):
        async def main():
            service, _ = await make_service(tmp_path)
            with pytest.raises(SpecError, match="unknown service verb"):
                service.submit("explode", SWEEP_SPEC)
            with pytest.raises(SpecError, match="unknown RunSpec"):
                service.submit("sweep", {"pear": {}})
            await service.stop()

        run(main())

    def test_all_four_verbs_serve(self, tmp_path):
        async def main():
            service, store = await make_service(tmp_path)
            await service.start()
            client = ServiceClient(service)
            sweep = await client.submit("sweep", SWEEP_SPEC)
            worst = await client.submit("worst_case", {
                "pair": {"kind": "symmetric", "eta": 0.01},
                "horizon_multiple": 1,
                "des_spot_checks": 2,
            })
            sim = await client.submit("simulate", {
                "scenario": {
                    "factory": "dense_network",
                    "params": {"n_devices": 3, "eta": 0.02},
                },
            })
            grid = await client.submit("grid", GRID_SPEC)
            await service.stop()
            return sweep, worst, sim, grid, store

        sweep, worst, sim, grid, store = run(main())
        assert sweep.payload["offsets_evaluated"] == 16
        assert worst.payload["des_agrees"] is True
        assert sim.payload["n_nodes"] == 3
        assert len(grid.payload["scenarios"]) == 4
        assert store.stats["writes"] == 4


# ----------------------------------------------------------------------
# Retry, timeout, crash recovery
# ----------------------------------------------------------------------


class TestRecovery:
    def test_crash_class_retries_then_succeeds(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = SweepService._compute

        def flaky(self, job):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise BrokenProcessPool("simulated pool crash")
            return real(self, job)

        monkeypatch.setattr(SweepService, "_compute", flaky)

        async def main():
            service, _ = await make_service(tmp_path, workers=1)
            await service.start()
            job = service.submit("sweep", SWEEP_SPEC)
            result = await job.wait()
            await service.stop()
            return service, job, result

        service, job, result = run(main())
        assert job.attempts == 3
        assert service._stats["retries"] == 2
        assert result.payload["offsets_evaluated"] == 16
        assert [e["kind"] for e in job.events].count("retry") == 2

    def test_retries_exhausted_fail_the_job(self, tmp_path, monkeypatch):
        def always_broken(self, job):
            raise BrokenProcessPool("simulated pool crash")

        monkeypatch.setattr(SweepService, "_compute", always_broken)

        async def main():
            service, _ = await make_service(
                tmp_path, workers=1, max_retries=1
            )
            await service.start()
            job = service.submit("sweep", SWEEP_SPEC)
            with pytest.raises(JobFailed, match="BrokenProcessPool"):
                await job.wait()
            await service.stop()
            return service, job

        service, job = run(main())
        assert job.state == "failed" and job.attempts == 2
        assert service._stats["failed"] == 1
        assert service._inflight == {}  # a failed fingerprint frees its slot

    def test_compute_errors_fail_permanently(self, tmp_path):
        async def main():
            service, _ = await make_service(tmp_path, workers=1)
            await service.start()
            # A grid verb without a grid is a deterministic ValueError.
            job = service.submit("grid", {"pair": {"kind": "symmetric",
                                                   "eta": 0.01}})
            with pytest.raises(JobFailed, match="ValueError"):
                await job.wait()
            await service.stop()
            return service, job

        service, job = run(main())
        assert job.attempts == 1  # no retry for deterministic errors
        assert service._stats["retries"] == 0

    def test_timeout_counts_and_retries(self, tmp_path, monkeypatch):
        # The first attempt hangs until the service gives up on it: it
        # blocks on an event only the job's "retry" event sets, so the
        # one executor thread is free again as soon as the timeout has
        # fired and the retry never queues behind its own hung attempt.
        calls = {"n": 0}
        real = SweepService._compute
        retried = threading.Event()
        real_emit = Job.emit

        def emit(self, kind, data=None):
            if kind == "retry":
                retried.set()
            return real_emit(self, kind, data)

        def hang_once(self, job):
            calls["n"] += 1
            if calls["n"] == 1:
                assert retried.wait(timeout=30)
                return None  # the timed-out attempt's result is discarded
            return real(self, job)

        monkeypatch.setattr(Job, "emit", emit)
        monkeypatch.setattr(SweepService, "_compute", hang_once)

        async def main():
            service, _ = await make_service(
                tmp_path, workers=1, job_timeout=0.2
            )
            await service.start()
            job = service.submit("sweep", SWEEP_SPEC)
            result = await job.wait()
            await service.stop()
            return service, job, result

        service, job, result = run(main())
        assert service._stats["timeouts"] >= 1
        assert job.attempts >= 2
        assert result.payload["offsets_evaluated"] == 16
        kinds = [event["kind"] for event in job.events]
        assert [k for k in kinds if k in ("running", "retry", "done")] == [
            "running", "retry", "running", "done",
        ]

    def test_grid_resumes_from_checkpoint(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = service_module._network_one

        def flaky(config, item):
            calls["n"] += 1
            if calls["n"] == 3:  # crash mid-grid on the first attempt
                raise BrokenProcessPool("simulated pool-child SIGKILL")
            return real(config, item)

        monkeypatch.setattr(service_module, "_network_one", flaky)

        async def main():
            service, _ = await make_service(tmp_path, workers=1)
            await service.start()
            job = service.submit("grid", GRID_SPEC)
            result = await job.wait()
            await service.stop()
            return job, result

        job, result = run(main())
        with Session(RuntimeProfile()) as session:
            direct = session.grid(RunSpec.from_dict(GRID_SPEC))
        # Resumed grid is bit-identical to an uninterrupted one.
        assert result.payload == direct.payload
        assert job.attempts == 2
        # 4 scenarios: 2 done + 1 crashed on attempt 1, the 2 missing on
        # attempt 2 -- the checkpointed pair never re-ran.
        assert calls["n"] == 5
        kinds = [event["kind"] for event in job.events]
        assert "retry" in kinds and kinds[-1] == "done"
        progress = [e["data"] for e in job.events if e["kind"] == "progress"]
        assert [p["completed"] for p in progress] == [1, 2, 3, 4]

    def test_dead_worker_task_requeues_its_job(self, tmp_path):
        import threading

        release = threading.Event()
        real = SweepService._compute
        state = {"first": True}

        def gated(self, job):
            if state["first"]:
                state["first"] = False
                release.wait(timeout=10)
            return real(self, job)

        async def main():
            service, _ = await make_service(tmp_path, workers=1)
            service._compute = gated.__get__(service, SweepService)
            await service.start()
            job = service.submit("sweep", SWEEP_SPEC)
            while not service._current:  # wait until the worker holds it
                await asyncio.sleep(0.01)
            wid, task = next(iter(service._worker_tasks.items()))
            task.cancel()  # kill the dispatch task mid-job
            release.set()
            result = await asyncio.wait_for(job.wait(), timeout=30)
            await service.stop()
            return service, job, result

        service, job, result = run(main())
        assert service._stats["requeued"] == 1
        assert job.requeues == 1
        assert "requeued" in [event["kind"] for event in job.events]
        assert result.payload["offsets_evaluated"] == 16


# ----------------------------------------------------------------------
# Wire protocol + clients
# ----------------------------------------------------------------------


class TestWireProtocol:
    def test_remote_submit_status_result_stream_stats(self, tmp_path):
        async def main():
            service, _ = await make_service(tmp_path)
            await service.start()
            server = await SweepServer(service, port=0).start()
            async with await RemoteClient.connect(
                "127.0.0.1", server.port
            ) as client:
                response = await client.submit("sweep", SWEEP_SPEC)
                assert response["ok"] is True
                job_id = response["job"]["id"]
                assert (
                    response["result"]["payload"]["offsets_evaluated"] == 16
                )
                assert response["store_meta"]["hit"] is False

                status = await client.status(job_id)
                assert status["state"] == "done"
                assert status["source"] == "computed"

                again = await client.result(job_id)
                assert again["result"] == response["result"]

                events = [
                    frame async for frame in client.stream(job_id)
                ]
                assert events[-1]["done"] is True
                kinds = [f["event"]["kind"] for f in events if "event" in f]
                assert kinds[0] == "submitted" and kinds[-1] == "done"

                stats = await client.stats()
                assert stats["service"]["completed"] == 1
                assert stats["store"]["objects"] == 1
            await server.stop()
            await service.stop()

        run(main())

    def test_remote_spec_round_trip_preserves_fingerprint(self, tmp_path):
        # A spec submitted over the wire must land on the same
        # fingerprint as the in-process submission -- the dedup contract
        # across transports.
        async def main():
            service, store = await make_service(tmp_path)
            await service.start()
            server = await SweepServer(service, port=0).start()
            async with await RemoteClient.connect(
                "127.0.0.1", server.port
            ) as client:
                remote = await client.submit(
                    "sweep", RunSpec.from_dict(SWEEP_SPEC)
                )
            local = service.submit("sweep", SWEEP_SPEC)
            assert local.source == "hit"
            assert (
                remote["store_meta"]["fingerprint"] == local.fingerprint
            )
            await server.stop()
            await service.stop()

        run(main())

    def test_error_envelopes(self, tmp_path):
        async def main():
            service, _ = await make_service(tmp_path, queue_limit=1)
            await service.start()
            server = await SweepServer(service, port=0).start()
            async with await RemoteClient.connect(
                "127.0.0.1", server.port
            ) as client:
                with pytest.raises(RemoteError, match="SpecError"):
                    await client.submit("explode", SWEEP_SPEC)
                with pytest.raises(RemoteError, match="unknown job id"):
                    await client.status("job-999999")
                with pytest.raises(RemoteError, match="unknown op"):
                    await client.request({"op": "frobnicate"})
                # The connection survives per-request errors.
                assert (await client.stats())["service"]["workers"] == 2
            # A malformed frame gets one error envelope, then hangup.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"{not json\n")
            await writer.drain()
            line = await reader.readline()
            frame = json.loads(line)
            assert frame["ok"] is False
            assert frame["error"]["type"] == "ProtocolError"
            assert await reader.read() == b""  # server closed
            writer.close()
            await writer.wait_closed()
            await server.stop()
            await service.stop()

        run(main())

    def test_stream_of_live_grid_shows_progress(self, tmp_path):
        async def main():
            service, _ = await make_service(tmp_path, workers=1)
            await service.start()
            server = await SweepServer(service, port=0).start()
            async with await RemoteClient.connect(
                "127.0.0.1", server.port
            ) as submitter:
                admitted = await submitter.submit(
                    "grid", GRID_SPEC, wait=False
                )
                job_id = admitted["job"]["id"]
                async with await RemoteClient.connect(
                    "127.0.0.1", server.port
                ) as watcher:
                    frames = [f async for f in watcher.stream(job_id)]
            kinds = [f["event"]["kind"] for f in frames if "event" in f]
            assert kinds.count("progress") == 4
            assert frames[-1]["job"]["state"] == "done"
            await server.stop()
            await service.stop()

        run(main())


# ----------------------------------------------------------------------
# Campaign batches
# ----------------------------------------------------------------------


class TestCampaignBatch:
    CAMPAIGN = Campaign(
        name="tiny-batch",
        runs=[{
            "verb": "sweep",
            "label": "sym",
            "spec": SWEEP_SPEC,
            "axes": {"pair.eta": [0.01, 0.02, 0.03]},
        }],
    )

    def test_campaign_submits_as_job_batch(self, tmp_path):
        async def main():
            service, store = await make_service(tmp_path)
            await service.start()
            client = ServiceClient(service)
            batch = await client.submit_campaign(self.CAMPAIGN)
            results = await asyncio.gather(
                *(job.wait() for _, job in batch)
            )
            assert [label for label, _ in batch] == [
                "sym[pair.eta=0.01]", "sym[pair.eta=0.02]",
                "sym[pair.eta=0.03]",
            ]
            assert service._stats["computed"] == 3
            # Resubmission is all hits: the campaign is store-addressed.
            rebatch = await client.submit_campaign(self.CAMPAIGN)
            assert all(job.source == "hit" for _, job in rebatch)
            assert service._stats["computed"] == 3
            await service.stop()
            return store, results

        store, results = run(main())
        assert store.stats["writes"] == 3
        assert all(r.payload["offsets_evaluated"] == 16 for r in results)

    def test_concurrent_clients_dedupe_cross_client(self, tmp_path):
        async def main():
            service, store = await make_service(tmp_path)
            await service.start()
            clients = [ServiceClient(service) for _ in range(3)]
            batches = [
                await client.submit_campaign(self.CAMPAIGN)
                for client in clients
            ]
            all_results = await asyncio.gather(*(
                job.wait() for batch in batches for _, job in batch
            ))
            await service.stop()
            return service, store, all_results

        service, store, all_results = run(main())
        # 9 submissions across 3 clients, 3 unique fingerprints: the
        # compute ran exactly once per fingerprint.
        assert service._stats["submitted"] == 9
        assert service._stats["computed"] == 3
        assert store.stats["writes"] == 3
        payloads = {}
        for result in all_results:
            key = json.dumps(result.spec, sort_keys=True)
            blob = json.dumps(result.payload, sort_keys=True)
            assert payloads.setdefault(key, blob) == blob

    def test_remote_campaign_submission(self, tmp_path):
        async def main():
            service, _ = await make_service(tmp_path)
            await service.start()
            server = await SweepServer(service, port=0).start()
            async with await RemoteClient.connect(
                "127.0.0.1", server.port
            ) as client:
                responses = await client.submit_campaign(self.CAMPAIGN)
            assert len(responses) == 3
            assert all(r["ok"] for _, r in responses)
            await server.stop()
            await service.stop()

        run(main())
