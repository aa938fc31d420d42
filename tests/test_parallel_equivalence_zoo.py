"""Zoo-wide equivalence harness: every execution path is bit-identical.

The load-bearing invariant of the runtime is that every execution path
-- the ``python`` reference kernel, the vectorized ``numpy`` kernel, and
``jobs=2`` (the shared persistent pool) -- produces bit-identical
results for every protocol family in the reproduction, including
non-integer-period schedules (which disable the pattern cache) and the
drift/jitter fidelity knobs of grid scenarios.  This file pins that
invariant:

* offset sweeps, per family (13 families: the four classic slotted
  protocols, quorum, Nihao, Birthday, the two PI/BLE shapes, the three
  paper-optimal constructions, and a float-period PI pair exercising
  the uncached fallback) under **all three** reception models, as full
  per-offset outcome lists and as aggregated reports, against the exact
  uncached reference;
* dedicated cases for the residue-memo regime and a >= 4096-segment
  pattern, which small zoo schedules never reach;
* ``Session.worst_case`` with DES spot checks and ``Session.grid`` with
  drift and advertising jitter, across the same three paths;
* the plain entry points (``sweep_offsets``, ``verified_worst_case``,
  ``sweep_network_grid``) pinned to the ``jobs=2`` Session verbs;
* unit tests of the keyed cache registry (hit/miss/LRU/invalidation)
  and the persistent-pool lifecycle (lazy creation, reuse across
  sweeps, explicit shutdown, no leaked worker processes or segments).
"""

import os

import pytest

from repro.api import RunSpec, RuntimeProfile, Session
from repro.backends import (
    available_backends,
    get_pooled_backend,
    PooledBackend,
    shutdown_pooled_backends,
    SweepParams,
)
from repro.core.sequences import BeaconSchedule, NDProtocol, ReceptionSchedule
from repro.parallel import (
    get_listening_cache,
    invalidate_listening_caches,
    ListeningCache,
    listening_cache_stats,
    ParallelSweep,
    protocol_fingerprint,
)
from repro.parallel.cache import _MEMO_MIN_SEGMENTS, _REGISTRY
from repro.protocols import (
    Birthday,
    CorrelatedOneWay,
    Diffcodes,
    Disco,
    GridQuorum,
    Nihao,
    OptimalAsymmetric,
    OptimalSlotless,
    PeriodicInterval,
    Role,
    Searchlight,
    UConnect,
)
from repro.simulation import (
    evaluate_offsets,
    ReceptionModel,
    summarize_outcomes,
    sweep_network_grid,
    sweep_offsets,
    verified_worst_case,
)
from repro.workloads import (
    dense_network,
    drifting_pair,
    gradual_join,
    scenario_grid,
)

SLOT = 200
OMEGA = 16


def _pair(proto):
    return proto.device(Role.E), proto.device(Role.F)


def _float_pi_pair():
    """Non-integer periods: the pattern cache must disable and fall back."""
    adv = NDProtocol(
        beacons=BeaconSchedule.uniform(1, 100.1, 2),
        reception=ReceptionSchedule.single_window(25, 600),
    )
    scan = NDProtocol(
        beacons=BeaconSchedule.uniform(2, 150, 3),
        reception=ReceptionSchedule.single_window(40.5, 350.25),
    )
    return adv, scan


# One entry per protocol family: builder -> (protocol_e, protocol_f).
ZOO = {
    "disco": lambda: _pair(Disco(3, 5, slot_length=SLOT, omega=OMEGA)),
    "uconnect": lambda: _pair(UConnect(5, slot_length=SLOT, omega=OMEGA)),
    "searchlight": lambda: _pair(
        Searchlight(4, slot_length=SLOT, omega=OMEGA)
    ),
    "diffcodes": lambda: _pair(Diffcodes(2, slot_length=SLOT, omega=OMEGA)),
    "grid-quorum": lambda: _pair(
        GridQuorum(3, slot_length=SLOT, omega=OMEGA)
    ),
    "nihao": lambda: _pair(Nihao(3, slot_length=100, omega=OMEGA)),
    "birthday": lambda: _pair(
        Birthday(
            p_tx=0.2, p_rx=0.2, slot_length=100, omega=OMEGA,
            horizon_slots=64, seed=5,
        )
    ),
    "pi-bidirectional": lambda: _pair(
        PeriodicInterval(300, 700, 150, omega=OMEGA, bidirectional=True)
    ),
    "pi-adv-scan": lambda: _pair(
        PeriodicInterval(300, 700, 150, omega=OMEGA, bidirectional=False)
    ),
    "optimal-slotless": lambda: _pair(OptimalSlotless(eta=0.05, omega=32)),
    "optimal-asymmetric": lambda: _pair(
        OptimalAsymmetric(eta_e=0.1, eta_f=0.05, omega=32)
    ),
    "correlated-one-way": lambda: _pair(
        CorrelatedOneWay(k=4, window=64, omega=32)
    ),
    "float-period-pi": _float_pi_pair,
}

MODELS = list(ReceptionModel)


def _workload(protocol_e, protocol_f):
    """A deterministic offset list and horizon sized to the pair."""
    period = 1
    for proto in (protocol_e, protocol_f):
        if proto.beacons is not None:
            period = max(period, int(proto.beacons.period))
        if proto.reception is not None:
            period = max(period, int(proto.reception.period))
    step = max(1, (2 * period) // 40)
    offsets = list(range(0, 2 * period, step))
    # A prime-ish perturbation exercises off-grid residues too.
    offsets += [offset + 7 for offset in offsets[::5]]
    return offsets, period * 12


#: The execution paths every result must agree across: each runnable
#: kernel in-process, plus ``jobs=2`` (the persistent pool over the
#: auto-detected kernel).
PATHS = [{"jobs": 1, "backend": name} for name in available_backends()] + [
    {"jobs": 2}
]
PATH_IDS = [
    path.get("backend", f"jobs={path['jobs']}") for path in PATHS
]


def _engines():
    return {
        path_id: ParallelSweep(**path)
        for path_id, path in zip(PATH_IDS, PATHS)
    }


@pytest.mark.parametrize("path", PATHS, ids=PATH_IDS)
@pytest.mark.parametrize("family", list(ZOO), ids=list(ZOO))
def test_family_sweep_bit_identical_all_models(family, path):
    """python == numpy == jobs=2, pinned against the exact uncached
    reference, for every family under all three reception models --
    full per-offset outcome lists and the aggregated reports."""
    protocol_e, protocol_f = ZOO[family]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    engine = ParallelSweep(**path)
    for model in MODELS:
        serial = evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, model
        )
        got = engine.evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, model
        )
        assert got == serial, (family, model)
        assert engine.sweep_offsets(
            protocol_e, protocol_f, offsets, horizon, model
        ) == summarize_outcomes(serial), (family, model)


@pytest.mark.parametrize("family", list(ZOO), ids=list(ZOO))
def test_family_all_paths_bit_identical(family):
    """The public ``evaluate_offsets``/``sweep_offsets`` entry points ==
    the auto-kernel engine in-process == the ``jobs=2`` pool, as full
    per-offset outcome lists and as aggregated reports, with each warm
    engine then reused under the paper's POINT model."""
    protocol_e, protocol_f = ZOO[family]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    # Rotate the reception model per family so all three decode
    # semantics appear across the zoo; POINT runs for every family.
    model = MODELS[sorted(ZOO).index(family) % len(MODELS)]

    serial_outcomes = evaluate_offsets(
        protocol_e, protocol_f, offsets, horizon, model
    )
    serial_report = sweep_offsets(
        protocol_e, protocol_f, offsets, horizon, model
    )
    engines = {
        "in-process-cached": ParallelSweep(jobs=1),
        "pooled": ParallelSweep(jobs=2),
    }
    for name, engine in engines.items():
        outcomes = engine.evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, model
        )
        assert outcomes == serial_outcomes, (family, name, model)
        report = engine.sweep_offsets(
            protocol_e, protocol_f, offsets, horizon, model
        )
        assert report == serial_report, (family, name, model)
    if model is not ReceptionModel.POINT:
        point_serial = sweep_offsets(protocol_e, protocol_f, offsets, horizon)
        for name, engine in engines.items():
            assert (
                engine.sweep_offsets(protocol_e, protocol_f, offsets, horizon)
                == point_serial
            ), (family, name)


@pytest.mark.parametrize("backend", available_backends())
def test_backend_threads_through_parallel_sweep(backend):
    """The kernel choice reaches the ``jobs=2`` pool: it runs the
    selected kernel in its workers and stays bit-identical."""
    protocol_e, protocol_f = ZOO["disco"]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    serial = evaluate_offsets(protocol_e, protocol_f, offsets, horizon)
    engine = ParallelSweep(jobs=2, backend=backend)
    pool = engine._resolve_backend()
    assert isinstance(pool, PooledBackend)
    assert pool.inner == backend
    assert engine.evaluate_offsets(
        protocol_e, protocol_f, offsets, horizon
    ) == serial


def test_turnaround_guard_reaches_every_path():
    """A non-zero turnaround changes decisions; every path must agree
    with the reference under it (below-threshold boot queries included)."""
    protocol_e, protocol_f = ZOO["searchlight"]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    engines = _engines()
    for model in MODELS:
        serial = evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, model, turnaround=7
        )
        for name, engine in engines.items():
            got = engine.evaluate_offsets(
                protocol_e, protocol_f, offsets, horizon, model,
                turnaround=7,
            )
            assert got == serial, (name, model)


def _dense_pattern_pair(gap, window_period, window=64):
    """A pair whose receiver pattern has many segments per hyperperiod."""
    proto = NDProtocol(
        beacons=BeaconSchedule.uniform(1, gap, 2),
        reception=ReceptionSchedule.single_window(window, window_period),
    )
    return proto, proto


@pytest.mark.parametrize(
    "gap,window_period,regime",
    [
        (255, 256, "residue-memo"),  # >= _MEMO_MIN_SEGMENTS segments
        (2049, 2048, "zero-copy"),  # >= 4096 segments
    ],
)
def test_large_pattern_regimes_bit_identical(gap, window_period, regime):
    """The memo branch and a >= 4096-segment pattern (both unreachable
    with small zoo schedules) also reproduce the serial path exactly
    through every engine."""
    protocol_e, protocol_f = _dense_pattern_pair(gap, window_period)
    cache = ListeningCache(protocol_e)
    assert cache.enabled
    if regime == "residue-memo":
        assert cache.pattern_segments >= _MEMO_MIN_SEGMENTS
        assert cache._use_memo
    else:
        assert cache.pattern_segments >= 4096
    hyper = protocol_e.hyperperiod()
    offsets = list(range(0, hyper, max(1, hyper // 48)))
    horizon = 6 * window_period

    serial = evaluate_offsets(protocol_e, protocol_f, offsets, horizon)
    for name, engine in _engines().items():
        got = engine.evaluate_offsets(protocol_e, protocol_f, offsets, horizon)
        assert got == serial, (regime, name)


@pytest.mark.parametrize("family", ["disco", "nihao", "optimal-slotless"])
def test_worst_case_with_des_checks_bit_identical(family):
    """Session.worst_case -- critical enumeration, sweep and DES spot
    checks -- returns the identical verdict on every path."""
    protocol_e, protocol_f = ZOO[family]()
    _offsets, horizon = _workload(protocol_e, protocol_f)
    spec = RunSpec(
        pair=(protocol_e, protocol_f), horizon=horizon, omega=OMEGA,
        des_spot_checks=4,
    )
    results = {}
    for path_id, path in zip(PATH_IDS, PATHS):
        with Session(RuntimeProfile(**path)) as session:
            results[path_id] = session.worst_case(spec).raw
    reference = results.pop("python")
    assert reference.des_agrees
    for path_id, got in results.items():
        assert got == reference, (family, path_id)


def test_grid_bit_identical_with_fidelity_knobs():
    """Session.grid is identical on every path for grids mixing device
    counts, drift and staggered joins, with advertising jitter on."""
    grid = (
        scenario_grid(dense_network, n_devices=[3, 4], eta=[0.05], seed=[0, 1])
        + [drifting_pair(eta=0.05, drift_ppm=40, seed=2)]
        + [gradual_join(n_devices=3, eta=0.05, seed=3)]
    )
    spec = RunSpec(grid=grid, seed=11, advertising_jitter=300)
    results = {}
    for path_id, path in zip(PATH_IDS, PATHS):
        with Session(RuntimeProfile(**path)) as session:
            results[path_id] = session.grid(spec).raw
    reference = results.pop("python")
    for path_id, got in results.items():
        assert got == reference, path_id
    # The jitter knob actually reached the simulation: a different
    # jitter bound must move at least one scenario's outcome.
    with Session(jobs=2) as session:
        unjittered = session.grid(RunSpec(grid=grid, seed=11)).raw
    assert unjittered != reference


@pytest.mark.parametrize("family", list(ZOO), ids=list(ZOO))
def test_session_sweep_matches_reference(family):
    """Session.sweep is pinned bit-identical to the exact reference for
    every protocol family."""
    protocol_e, protocol_f = ZOO[family]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    model = MODELS[sorted(ZOO).index(family) % len(MODELS)]
    reference = summarize_outcomes(
        evaluate_offsets(protocol_e, protocol_f, offsets, horizon, model)
    )
    spec = RunSpec(
        pair=(protocol_e, protocol_f),
        offsets=list(offsets),
        horizon=horizon,
        model=model.value,
    )
    with Session(RuntimeProfile(jobs=1)) as session:
        assert session.sweep(spec).raw == reference, family


def test_session_sweep_sharded_matches_reference():
    """The multi-worker Session path (``jobs=2``) equals the sharded
    engine and the public ``sweep_offsets`` entry point."""
    protocol_e, protocol_f = ZOO["disco"]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    serial = sweep_offsets(protocol_e, protocol_f, offsets, horizon)
    sharded = ParallelSweep(jobs=2).sweep_offsets(
        protocol_e, protocol_f, offsets, horizon
    )
    spec = RunSpec(pair=(protocol_e, protocol_f), offsets=list(offsets),
                   horizon=horizon)
    with Session(RuntimeProfile(jobs=2)) as session:
        facade = session.sweep(spec).raw
    assert facade == serial == sharded


@pytest.mark.parametrize("family", ["disco", "nihao", "optimal-slotless"])
def test_session_worst_case_matches_entry_point(family):
    """Session.worst_case equals the plain ``verified_worst_case`` entry
    point (report, verdict and offsets checked)."""
    protocol_e, protocol_f = ZOO[family]()
    _offsets, horizon = _workload(protocol_e, protocol_f)
    plain = verified_worst_case(
        protocol_e, protocol_f, horizon, omega=OMEGA, des_spot_checks=4
    )
    spec = RunSpec(
        pair=(protocol_e, protocol_f), horizon=horizon, omega=OMEGA,
        des_spot_checks=4,
    )
    with Session(RuntimeProfile(jobs=2)) as session:
        facade = session.worst_case(spec).raw
    assert facade == plain, family


def test_session_grid_matches_entry_point():
    """Session.grid under ``jobs=2`` equals the plain
    ``sweep_network_grid`` entry point for a grid mixing device counts,
    drift and staggered joins."""
    grid = (
        scenario_grid(dense_network, n_devices=[3, 4], eta=[0.05], seed=[0, 1])
        + [drifting_pair(eta=0.05, drift_ppm=40, seed=2)]
        + [gradual_join(n_devices=3, eta=0.05, seed=3)]
    )
    plain = sweep_network_grid(grid, base_seed=11, advertising_jitter=300)
    spec = RunSpec(grid=grid, seed=11, advertising_jitter=300)
    with Session(RuntimeProfile(jobs=2)) as session:
        facade = session.grid(spec).raw
    assert facade == plain


class TestKeyedCacheRegistry:
    def setup_method(self):
        invalidate_listening_caches()

    def test_fingerprint_is_content_keyed(self):
        protocol_e, _ = ZOO["disco"]()
        clone_e, _ = ZOO["disco"]()
        other, _ = ZOO["nihao"]()
        assert protocol_e is not clone_e
        assert protocol_fingerprint(protocol_e) == protocol_fingerprint(clone_e)
        assert protocol_fingerprint(protocol_e) != protocol_fingerprint(other)
        assert protocol_fingerprint(protocol_e, turnaround=5) != (
            protocol_fingerprint(protocol_e)
        )

    def test_integer_and_float_schedules_fingerprint_differently(self):
        int_proto = NDProtocol(
            beacons=None, reception=ReceptionSchedule.single_window(25, 100)
        )
        float_proto = NDProtocol(
            beacons=None, reception=ReceptionSchedule.single_window(25.0, 100.0)
        )
        assert protocol_fingerprint(int_proto) != protocol_fingerprint(float_proto)

    def test_hits_share_one_cache_object(self):
        protocol, _ = ZOO["disco"]()
        before = listening_cache_stats()
        first = get_listening_cache(protocol)
        second = get_listening_cache(protocol)
        clone, _ = ZOO["disco"]()
        third = get_listening_cache(clone)
        assert first is second is third
        after = listening_cache_stats()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 2

    def test_invalidation_forces_rebuild(self):
        protocol, _ = ZOO["disco"]()
        first = get_listening_cache(protocol)
        assert invalidate_listening_caches(protocol_fingerprint(protocol)) == 1
        second = get_listening_cache(protocol)
        assert second is not first
        assert invalidate_listening_caches() >= 1
        assert invalidate_listening_caches() == 0
        assert listening_cache_stats()["size"] == 0

    def test_registry_is_lru_bounded(self):
        from repro.parallel.cache import _REGISTRY_CAP

        protocols = [
            NDProtocol(
                beacons=None,
                reception=ReceptionSchedule.single_window(10, 100 + i),
            )
            for i in range(_REGISTRY_CAP + 5)
        ]
        for proto in protocols:
            get_listening_cache(proto)
        stats = listening_cache_stats()
        assert stats["size"] == _REGISTRY_CAP
        # The oldest fingerprints were evicted, the newest retained.
        assert protocol_fingerprint(protocols[0], 0) not in _REGISTRY
        assert protocol_fingerprint(protocols[-1], 0) in _REGISTRY


def _worker_pids(backend, count=8):
    """The distinct worker PIDs currently serving the backend's pool."""
    futures = [backend.submit(os.getpid) for _ in range(count)]
    return {future.result() for future in futures}


def _assert_processes_exit(pids, timeout_s=10.0):
    import time

    deadline = time.monotonic() + timeout_s
    remaining = set(pids)
    while remaining and time.monotonic() < deadline:
        for pid in list(remaining):
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                remaining.discard(pid)
        if remaining:
            time.sleep(0.05)
    assert not remaining, f"worker processes leaked: {remaining}"


class TestPersistentPoolLifecycle:
    """The pooled backend's contract: lazy creation, reuse across
    sweeps, explicit shutdown, no leaked worker processes."""

    def _params(self):
        protocol_e, protocol_f = ZOO["disco"]()
        offsets, horizon = _workload(protocol_e, protocol_f)
        return (
            SweepParams(protocol_e, protocol_f, horizon, ReceptionModel.POINT),
            offsets,
        )

    def test_creation_is_lazy_and_degenerate_batches_stay_in_process(self):
        backend = PooledBackend(jobs=2)
        assert not backend.started
        params, offsets = self._params()
        single = backend.evaluate_offsets_batch(params, offsets[:1])
        assert not backend.started  # one offset never boots a pool
        assert len(single) == 1
        backend.evaluate_offsets_batch(params, offsets)
        assert backend.started
        backend.close()

    def test_pool_reused_across_sweeps(self):
        backend = PooledBackend(jobs=2)
        try:
            params, offsets = self._params()
            backend.evaluate_offsets_batch(params, offsets)
            first = backend.executor()
            pids = _worker_pids(backend)
            backend.evaluate_offsets_batch(params, offsets)
            # Same executor, and the original workers are still alive --
            # the second sweep paid no pool startup.  (The PID *set* may
            # grow as the lazy pool scales toward max_workers, so only
            # identity and liveness are contractual.)
            assert backend.executor() is first
            for pid in pids:
                os.kill(pid, 0)  # raises if the worker died
        finally:
            backend.close()

    def test_explicit_shutdown_terminates_workers_and_allows_reuse(self):
        backend = PooledBackend(jobs=2)
        params, offsets = self._params()
        serial = evaluate_offsets(
            params.protocol_e, params.protocol_f, offsets, params.horizon
        )
        assert backend.evaluate_offsets_batch(params, offsets) == serial
        pids = _worker_pids(backend)
        backend.close()
        assert not backend.started
        _assert_processes_exit(pids)
        backend.close()  # idempotent
        # A closed backend lazily boots a fresh pool on next use.
        assert backend.evaluate_offsets_batch(params, offsets) == serial
        assert backend.started
        backend.close()

    def test_shared_instances_keyed_by_shape(self):
        a = get_pooled_backend(jobs=2)
        b = get_pooled_backend(jobs=2)
        c = get_pooled_backend(jobs=3)
        assert a is b
        assert a is not c
        # Every jobs=2 engine resolves the same shared pool, so
        # independent sweeps reuse one warm pool.
        assert ParallelSweep(jobs=2)._resolve_backend() is a
        assert ParallelSweep(jobs=1)._resolve_backend() is not a

    def test_shutdown_pooled_backends_counts_live_pools_only(self):
        shutdown_pooled_backends()
        backend = get_pooled_backend(jobs=2)
        params, offsets = self._params()
        backend.evaluate_offsets_batch(params, offsets)
        pids = _worker_pids(backend)
        assert shutdown_pooled_backends() == 1
        assert shutdown_pooled_backends() == 0
        _assert_processes_exit(pids)

    def test_grid_and_spot_checks_reuse_persistent_pool(self):
        """Offset sweeps, grids and DES spot-checks of one jobs=2 engine
        share one pool and stay bit-identical to the serial path."""
        grid = scenario_grid(dense_network, n_devices=[3, 4], eta=[0.05], seed=[0, 1])
        serial = ParallelSweep(jobs=1).map_scenarios(grid, base_seed=5)
        protocol_e, protocol_f = ZOO["disco"]()
        offsets, horizon = _workload(protocol_e, protocol_f)
        reference = ParallelSweep(jobs=1).spot_check_pairs(
            protocol_e, protocol_f, offsets[:4], horizon
        )
        engine = ParallelSweep(jobs=2)
        pool = engine._resolve_backend()
        engine.sweep_offsets(protocol_e, protocol_f, offsets, horizon)
        executor = pool.executor()
        assert engine.map_scenarios(grid, base_seed=5) == serial
        assert engine.spot_check_pairs(
            protocol_e, protocol_f, offsets[:4], horizon
        ) == reference
        assert pool.executor() is executor


def test_session_lifecycle_leaks_nothing():
    """After ``__exit__``: zero leaked worker processes, zero leaked
    shared-memory segments -- and the runtime does not even load
    ``multiprocessing.shared_memory``."""
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.api; "
         "print('multiprocessing.shared_memory' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert probe.stdout.strip() == "False"
    shm_dir = "/dev/shm"
    can_watch_shm = os.path.isdir(shm_dir)
    before_shm = set(os.listdir(shm_dir)) if can_watch_shm else set()
    protocol_e, protocol_f = ZOO["disco"]()
    offsets, horizon = _workload(protocol_e, protocol_f)
    spec = RunSpec(pair=(protocol_e, protocol_f), offsets=list(offsets),
                   horizon=horizon)
    with Session(RuntimeProfile(jobs=2)) as session:
        session.sweep(spec)
        session.grid(RunSpec(
            grid=scenario_grid(dense_network, n_devices=[3, 4], eta=[0.05],
                               seed=[0]),
            seed=7,
        ))
        backend = session.backend
        assert backend.started
        pids = _worker_pids(backend)
    assert not backend.started
    _assert_processes_exit(pids)
    if can_watch_shm:
        leaked = set(os.listdir(shm_dir)) - before_shm
        assert not leaked, f"shared-memory segments leaked: {leaked}"
