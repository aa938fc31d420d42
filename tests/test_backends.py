"""Unit tests of the pluggable sweep-backend layer.

Registry semantics (names, auto-detection, unavailability errors), the
NumPy import-guard shim (including a simulated NumPy-less environment,
so every fallback path is exercised on machines that do have the
extra), kernel fallback behaviour on non-vectorizable inputs, the exact
arithmetic of every kernel instance, the ``ListeningCache.pattern_arrays()``
accessor, the cost-model calibration helpers, and CLI threading of
``--backend``.
"""

import math

import pytest

from repro.backends import (
    available_backends,
    BackendUnavailable,
    default_backend_name,
    get_backend,
    have_numpy,
    numpy_version,
    NumpyBackend,
    PooledBackend,
    PythonBackend,
    resolve_backend,
    SweepBackend,
    SweepParams,
)
from repro.backends import _np
from repro.core.optimal import synthesize_symmetric
from repro.core.sequences import BeaconSchedule, NDProtocol, ReceptionSchedule
from repro.parallel import ParallelSweep
from repro.parallel.schedule import (
    cost_components,
    COST_WEIGHTS,
    default_simulation_cost,
    fit_cost_weights,
)
from repro.simulation import evaluate_offsets, ReceptionModel, sweep_offsets
from repro.workloads import dense_network, symmetric_pair


def _kernel(name):
    """An in-process engine running kernel ``name``."""
    return ParallelSweep(jobs=1, backend=name)


def _small_pair():
    protocol, design = synthesize_symmetric(32, 0.05)
    offsets = list(range(0, 40_000, 1_111))
    return protocol, offsets, design.worst_case_latency * 3


class TestRegistry:
    def test_registered_names(self):
        names = available_backends()
        assert names == ["python", "numpy"] if have_numpy() else ["python"]

    def test_get_backend_returns_shared_instances(self):
        assert get_backend("python") is get_backend("python")
        assert isinstance(get_backend("python"), PythonBackend)

    @pytest.mark.parametrize("name", ["cuda", "pooled", "native"])
    def test_unknown_name_raises_with_candidates(self, name):
        with pytest.raises(KeyError, match="python"):
            get_backend(name)

    def test_resolve_auto_and_none_follow_detection(self):
        expected = default_backend_name()
        assert resolve_backend("auto").name == expected
        assert resolve_backend(None).name == expected

    def test_resolve_passes_instances_through(self):
        backend = PythonBackend()
        assert resolve_backend(backend) is backend

    def test_pooled_inner_kernel_tracks_numpy_availability(self, monkeypatch):
        """A ``jobs > 1`` engine re-detects its pool's inner kernel per
        resolution, not pinning the first call's auto-detection."""
        before = ParallelSweep(jobs=2)._resolve_backend().inner
        assert before == default_backend_name()
        monkeypatch.setattr(_np, "np", None)
        assert ParallelSweep(jobs=2)._resolve_backend().inner == "python"


class TestNumpyGuard:
    def test_auto_detection_prefers_fastest_available(self):
        if have_numpy():
            assert default_backend_name() == "numpy"
            assert numpy_version()
        else:
            assert default_backend_name() == "python"
            assert numpy_version() is None

    def test_simulated_numpy_absence_falls_back(self, monkeypatch):
        monkeypatch.setattr(_np, "np", None)
        assert not have_numpy()
        assert numpy_version() is None
        assert default_backend_name() == "python"
        assert "numpy" not in available_backends()
        with pytest.raises(BackendUnavailable, match="fast"):
            get_backend("numpy")
        # The whole sweep stack still works on the fallback kernel.
        protocol, offsets, horizon = _small_pair()
        serial = evaluate_offsets(protocol, protocol, offsets, horizon)
        auto = _kernel("auto").evaluate_offsets(
            protocol, protocol, offsets, horizon
        )
        assert auto == serial

    def test_numpy_backend_is_bit_identical_when_present(self):
        if not have_numpy():
            pytest.skip("NumPy extra not installed")
        protocol, offsets, horizon = _small_pair()
        serial = sweep_offsets(protocol, protocol, offsets, horizon)
        assert _kernel("numpy").sweep_offsets(
            protocol, protocol, offsets, horizon
        ) == serial


@pytest.mark.skipif(not have_numpy(), reason="NumPy extra not installed")
class TestNumpyKernelFallbacks:
    """Inputs the vectorized kernel must hand to the exact reference."""

    def _check(self, protocol_e, protocol_f, offsets, horizon, **kwargs):
        serial = evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, **kwargs
        )
        got = _kernel("numpy").evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, **kwargs
        )
        assert got == serial

    def test_float_offsets(self):
        protocol, _, horizon = _small_pair()
        self._check(protocol, protocol, [0.5, 10.25, 999.0], horizon)

    def test_huge_offsets_beyond_int64_headroom(self):
        protocol, _, horizon = _small_pair()
        self._check(protocol, protocol, [0, 1 << 61, (1 << 62) + 3], horizon)

    def test_float_horizon(self):
        protocol, offsets, horizon = _small_pair()
        self._check(protocol, protocol, offsets[:8], float(horizon))

    def test_non_integer_transmitter_schedule(self):
        adv = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 100.5, 2),
            reception=ReceptionSchedule.single_window(25, 600),
        )
        scan = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 150, 3),
            reception=ReceptionSchedule.single_window(40, 350),
        )
        self._check(adv, scan, list(range(0, 600, 7)), 4_000)

    def test_empty_offsets(self):
        protocol, _, horizon = _small_pair()
        assert _kernel("numpy").evaluate_offsets(
            protocol, protocol, [], horizon
        ) == []

    def test_below_threshold_queries_with_turnaround(self):
        protocol, offsets, horizon = _small_pair()
        self._check(protocol, protocol, offsets, horizon, turnaround=9)

    def test_all_models(self):
        protocol, offsets, horizon = _small_pair()
        for model in ReceptionModel:
            self._check(protocol, protocol, offsets[:16], horizon, model=model)


_NEEDS_NUMPY = pytest.mark.skipif(
    not have_numpy(), reason="NumPy extra not installed"
)


class _SmallBatchNumpy(NumpyBackend):
    """The numpy kernel fed a sweep as several short batches, the way
    pool workers receive their chunks: an offset's outcome must not
    depend on the other offsets in its batch."""

    BATCH = 7

    def evaluate_offsets_batch(self, params, offsets):
        offsets = list(offsets)
        outcomes = []
        for start in range(0, len(offsets), self.BATCH):
            outcomes.extend(
                super().evaluate_offsets_batch(
                    params, offsets[start:start + self.BATCH]
                )
            )
        return outcomes


#: Every selectable kernel instance, the numpy kernel both on whole
#: batches and on short chunks of them.
KERNELS = [
    pytest.param(PythonBackend, id="python"),
    pytest.param(NumpyBackend, id="numpy", marks=_NEEDS_NUMPY),
    pytest.param(_SmallBatchNumpy, id="numpy-batch", marks=_NEEDS_NUMPY),
]


@pytest.mark.parametrize("make_kernel", KERNELS)
class TestKernelContract:
    """Exact-arithmetic contract of each kernel instance, driven through
    ``evaluate_offsets_batch`` / ``enumerate_critical_offsets``
    directly: every kernel reproduces the uncached reference."""

    def _check(self, kernel, protocol_e, protocol_f, offsets, horizon,
               **kwargs):
        serial = evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon, **kwargs
        )
        params = SweepParams(
            protocol_e, protocol_f, horizon,
            kwargs.get("model", ReceptionModel.POINT),
            kwargs.get("turnaround", 0),
        )
        assert kernel.evaluate_offsets_batch(params, offsets) == serial

    def test_bit_identical_all_models(self, make_kernel):
        """Strided batches, one of them starting at negative offsets."""
        protocol, offsets, horizon = _small_pair()
        for batch in (offsets, list(range(-4_000, 40_000, 1_111))):
            for model in ReceptionModel:
                self._check(
                    make_kernel(), protocol, protocol, batch, horizon,
                    model=model,
                )

    def test_boot_threshold_split_with_turnaround(self, make_kernel):
        """Below-threshold candidates run the exact scalar scan; the
        rest start at each offset's boot-safe instance.  The dense
        stride-13 batch under turnaround 7 crosses the boot threshold."""
        protocol, offsets, horizon = _small_pair()
        for batch, turnaround in (
            (offsets, 9),
            (list(range(0, 9_000, 13)), 7),
        ):
            self._check(
                make_kernel(), protocol, protocol, batch, horizon,
                turnaround=turnaround,
            )

    def test_negative_and_scattered_offsets(self, make_kernel):
        protocol, _, horizon = _small_pair()
        for offsets in (
            [-7919, -13, 0, 4, 991, 65537, 3, 3],
            [0, 17, 4, 9_001, 23, 1 << 40, 55, 55, -3],
        ):
            self._check(make_kernel(), protocol, protocol, offsets, horizon)

    def test_non_vectorizable_delegates_to_reference(self, make_kernel):
        adv = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 100.5, 2),
            reception=ReceptionSchedule.single_window(25, 600),
        )
        scan = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 150, 3),
            reception=ReceptionSchedule.single_window(40, 350),
        )
        self._check(make_kernel(), adv, scan, list(range(0, 600, 7)), 4_000)

    def test_oversized_duration_stays_exact(self, make_kernel):
        """A beacon longer than the receiver's hyperperiod, both two-way
        and against a listen-only receiver: kernels that cannot
        vectorize it must fall back and stay exact."""
        beacons = BeaconSchedule.uniform(1, 5_000, 700)
        adv = NDProtocol(
            beacons=beacons,
            reception=ReceptionSchedule.single_window(25, 600),
        )
        scan = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 150, 3),
            reception=ReceptionSchedule.single_window(40, 350),
        )
        assert beacons.beacons[0].duration > scan.reception.period
        self._check(
            make_kernel(), adv, scan, list(range(0, 600, 11)), 20_000
        )
        one_way_adv = NDProtocol(beacons=beacons, reception=None)
        listener = NDProtocol(
            beacons=None,
            reception=ReceptionSchedule.single_window(25, 600),
        )
        assert beacons.beacons[0].duration > listener.reception.period
        self._check(
            make_kernel(), one_way_adv, listener,
            list(range(0, 16 * 37, 37)), 20_000,
        )

    def test_enumeration_bit_identical_with_guard_parity(self, make_kernel):
        from repro.simulation import critical_offsets

        protocol, _, _ = _small_pair()
        reference = critical_offsets(protocol, protocol, omega=32)
        assert reference
        kernel = make_kernel()
        params = SweepParams(protocol, protocol, 0, ReceptionModel.POINT)
        assert kernel.enumerate_critical_offsets(
            params, omega=32
        ) == reference
        undersized = max(1, len(reference) // 4)
        with pytest.raises(ValueError) as kernel_err:
            kernel.enumerate_critical_offsets(
                params, omega=32, max_count=undersized
            )
        with pytest.raises(ValueError) as ref_err:
            critical_offsets(
                protocol, protocol, omega=32, max_count=undersized
            )
        assert str(kernel_err.value) == str(ref_err.value)


def _refuse_delegation(self, params, offsets):
    raise AssertionError("batch delegated to the python kernel")


@pytest.mark.skipif(not have_numpy(), reason="NumPy extra not installed")
class TestIncrementalEngine:
    """Batch shapes a strided-sweep engine once special-cased (the class
    keeps that engine's name).  The numpy kernel now has one
    formulation: each of these batches runs through the vectorized
    batch kernel itself -- no opt-out flag, no wholesale hand-off to the
    python kernel -- and matches the uncached reference."""

    def _check_batch_kernel(self, monkeypatch, protocol_e, protocol_f,
                            offsets, horizon, model=ReceptionModel.POINT,
                            turnaround=0):
        serial = evaluate_offsets(
            protocol_e, protocol_f, offsets, horizon,
            model=model, turnaround=turnaround,
        )
        params = SweepParams(
            protocol_e, protocol_f, horizon, model, turnaround
        )
        with monkeypatch.context() as patch:
            patch.setattr(
                PythonBackend, "evaluate_offsets_batch", _refuse_delegation
            )
            got = NumpyBackend().evaluate_offsets_batch(params, offsets)
        assert got == serial, (model, turnaround)

    def test_escape_hatch_and_bit_identity(self, monkeypatch):
        """No constructor flag selects another formulation; a strided
        batch with negative offsets and the same offsets out of order
        are exact under every model."""
        import inspect

        assert not inspect.signature(NumpyBackend).parameters
        assert list(inspect.signature(PooledBackend).parameters) == [
            "inner", "jobs", "mp_context",
        ]
        protocol, _, horizon = _small_pair()
        offsets = list(range(-4_000, 40_000, 1_111))
        for batch in (offsets, offsets[1::2] + offsets[::2]):
            for model in ReceptionModel:
                self._check_batch_kernel(
                    monkeypatch, protocol, protocol, batch, horizon,
                    model=model,
                )

    def test_non_progression_batches_take_the_batch_kernel(
        self, monkeypatch
    ):
        """Scattered offsets, duplicates and ``1 << 40`` included."""
        protocol, _, horizon = _small_pair()
        self._check_batch_kernel(
            monkeypatch, protocol, protocol,
            [0, 17, 4, 9_001, 23, 1 << 40, 55, 55, -3], horizon,
        )

    def test_engine_declines_oversized_durations(self, monkeypatch):
        """A packet longer than the receiver hyperperiod is declined by
        the vectorized decode and answered per element on the exact
        scalar path; the batch itself stays in the numpy kernel."""
        adv = NDProtocol(
            beacons=BeaconSchedule.uniform(1, 5_000, 700),
            reception=None,
        )
        scan = NDProtocol(
            beacons=None,
            reception=ReceptionSchedule.single_window(25, 600),
        )
        assert adv.beacons.beacons[0].duration > scan.reception.period
        self._check_batch_kernel(
            monkeypatch, adv, scan, list(range(0, 16 * 37, 37)), 20_000
        )

    def test_turnaround_and_boot_threshold(self, monkeypatch):
        protocol, _, horizon = _small_pair()
        self._check_batch_kernel(
            monkeypatch, protocol, protocol, list(range(0, 9_000, 13)),
            horizon, turnaround=7,
        )


@pytest.mark.skipif(not have_numpy(), reason="NumPy extra not installed")
class TestPatternArraysAccessor:
    """ListeningCache.pattern_arrays(): the one sanctioned path to the
    int64 pattern arrays (PR 8 satellite -- previously kernels poked a
    private attribute onto foreign cache objects)."""

    def test_matches_pattern_and_is_memoized(self):
        import numpy as np

        from repro.parallel import get_listening_cache

        protocol, _, _ = _small_pair()
        cache = get_listening_cache(protocol, 0)
        assert cache.enabled
        starts, ends = cache.pattern_arrays()
        assert starts.dtype == np.int64 and ends.dtype == np.int64
        assert starts.tolist() == list(cache._starts)
        assert ends.tolist() == list(cache._ends)
        again = cache.pattern_arrays()
        assert again[0] is starts and again[1] is ends  # built once

    def test_numpy_less_environment_raises_cleanly(self, monkeypatch):
        from repro.parallel.cache import ListeningCache

        protocol, _, _ = _small_pair()
        cache = ListeningCache(protocol)
        assert cache.enabled
        monkeypatch.setattr(_np, "np", None)
        with pytest.raises(BackendUnavailable, match="pattern_arrays"):
            cache.pattern_arrays()


class TestCustomBackendInstances:
    def test_unregistered_instance_runs_in_process(self):
        calls = []

        class Recording(SweepBackend):
            name = "recording"

            def evaluate_offsets_batch(self, params, offsets):
                calls.append(len(list(offsets)))
                return PythonBackend().evaluate_offsets_batch(params, offsets)

        protocol, offsets, horizon = _small_pair()
        serial = evaluate_offsets(protocol, protocol, offsets, horizon)
        executor = ParallelSweep(jobs=2, backend=Recording())
        assert executor.evaluate_offsets(
            protocol, protocol, offsets, horizon
        ) == serial
        assert calls == [len(offsets)]


class TestEnumerateCriticalOffsets:
    """Unit tests of the second kernel-dispatched operation (PR 5)."""

    def test_base_default_is_the_reference(self):
        """A custom kernel that never opts in still enumerates exactly:
        the abstract base delegates to the python reference."""

        class Minimal(SweepBackend):
            name = "minimal"

            def evaluate_offsets_batch(self, params, offsets):
                return []

        from repro.simulation import critical_offsets

        protocol, _, _ = _small_pair()
        params = SweepParams(protocol, protocol, 0, ReceptionModel.POINT)
        assert Minimal().enumerate_critical_offsets(
            params, omega=32
        ) == critical_offsets(protocol, protocol, omega=32)

    def test_backend_kwarg_resolves_names(self):
        from repro.simulation import critical_offsets

        protocol, _, _ = _small_pair()
        reference = critical_offsets(protocol, protocol, omega=32)
        assert reference  # non-degenerate workload
        for backend in ("python", "auto", get_backend("python")):
            assert critical_offsets(
                protocol, protocol, omega=32, backend=backend
            ) == reference

    def test_pooled_delegates_in_process_without_booting(self):
        """Enumeration through a pooled backend runs the inner kernel
        in the parent -- no worker processes exist afterwards."""
        from repro.simulation import critical_offsets

        protocol, _, _ = _small_pair()
        backend = PooledBackend(inner="python", jobs=2)
        try:
            params = SweepParams(protocol, protocol, 0, ReceptionModel.POINT)
            assert backend.enumerate_critical_offsets(
                params, omega=32
            ) == critical_offsets(protocol, protocol, omega=32)
            assert not backend.started
        finally:
            backend.close()

    @pytest.mark.skipif(not have_numpy(), reason="NumPy extra not installed")
    def test_numpy_bit_identical_including_sort_regime(self, monkeypatch):
        """Both dedup regimes of the vectorized kernel (bitmap scatter
        and sort-based) return the reference's exact list."""
        from repro.backends import numpy_kernel
        from repro.simulation import critical_offsets

        protocol, _, _ = _small_pair()
        reference = critical_offsets(protocol, protocol, omega=32)
        assert critical_offsets(
            protocol, protocol, omega=32, backend="numpy"
        ) == reference
        # Force the sort path by shrinking the bitmap threshold.
        monkeypatch.setattr(numpy_kernel, "_BITMAP_MAX_HYPER", 0)
        assert critical_offsets(
            protocol, protocol, omega=32, backend="numpy"
        ) == reference

    @pytest.mark.skipif(not have_numpy(), reason="NumPy extra not installed")
    def test_numpy_delegates_beyond_int_headroom(self, monkeypatch):
        from repro.backends import numpy_kernel
        from repro.simulation import critical_offsets

        protocol, _, _ = _small_pair()
        monkeypatch.setattr(numpy_kernel, "_INT_BOUND", 1)
        assert critical_offsets(
            protocol, protocol, omega=32, backend="numpy"
        ) == critical_offsets(protocol, protocol, omega=32)

    def test_verified_worst_case_threads_enumeration_backend(self):
        """The worst-case pipeline is bit-identical whichever kernel
        enumerates (and sweeps): python vs auto-detected."""
        from repro.api import RunSpec, RuntimeProfile, Session

        spec = RunSpec(
            pair={"kind": "symmetric", "eta": 0.05}, omega=32,
            des_spot_checks=4,
        )
        with Session(RuntimeProfile(backend="python", jobs=1)) as session:
            reference = session.worst_case(spec)
        with Session(RuntimeProfile(backend="auto", jobs=1)) as session:
            detected = session.worst_case(spec)
        assert detected.raw == reference.raw


class TestCostModelCalibration:
    def test_components_sum_to_default_cost(self):
        scenario = dense_network(n_devices=4, eta=0.02)
        beacon, window = cost_components(scenario.protocols, scenario.horizon)
        assert beacon > 0 and window > 0
        w_beacon, w_window = COST_WEIGHTS
        assert math.isclose(
            default_simulation_cost(scenario.protocols, scenario.horizon),
            w_beacon * beacon + w_window * window,
        )

    def test_fit_recovers_exact_synthetic_weights(self):
        rows = [
            {"beacon_component": b, "window_component": w,
             "seconds": 3e-6 * b + 7e-6 * w}
            for b, w in [(1e5, 2e4), (4e5, 1e5), (2e5, 9e5), (8e5, 3e5)]
        ]
        w_beacon, w_window = fit_cost_weights({"per_scenario": rows})
        assert math.isclose(w_beacon, 3e-6, rel_tol=1e-6)
        assert math.isclose(w_window, 7e-6, rel_tol=1e-6)

    def test_fit_collinear_falls_back_to_shared_scale(self):
        rows = [
            {"beacon_component": b, "window_component": 2 * b,
             "seconds": 5e-6 * 3 * b}
            for b in (1e5, 2e5, 3e5)
        ]
        w_beacon, w_window = fit_cost_weights({"per_scenario": rows})
        assert w_beacon == w_window > 0

    def test_fit_clamps_negative_solutions(self):
        rows = [
            {"beacon_component": 1e5, "window_component": 1e3, "seconds": 1.0},
            {"beacon_component": 1e3, "window_component": 1e5, "seconds": -1.0},
        ]
        w_beacon, w_window = fit_cost_weights({"per_scenario": rows})
        assert w_beacon >= 0 and w_window >= 0

    def test_fit_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_cost_weights({"per_scenario": []})

    def test_bench_json_roundtrips_through_fit(self, tmp_path):
        import json

        payload = {
            "per_scenario": [
                {"beacon_component": 2e5, "window_component": 1e4,
                 "seconds": 0.4},
                {"beacon_component": 5e4, "window_component": 8e4,
                 "seconds": 0.2},
            ]
        }
        path = tmp_path / "BENCH_parallel.json"
        path.write_text(json.dumps(payload))
        assert fit_cost_weights(path) == fit_cost_weights(payload)

    def test_pinned_weights_reach_cost_hint(self):
        scenario = symmetric_pair(eta=0.02)
        beacon, window = cost_components(scenario.protocols, scenario.horizon)
        w_beacon, w_window = COST_WEIGHTS
        assert math.isclose(
            scenario.cost_hint(), w_beacon * beacon + w_window * window
        )

    def test_fit_rejects_payload_without_per_scenario_rows(self):
        # A pre-PR-3 bench payload must produce a clear error, not an
        # opaque TypeError from iterating the dict's keys.
        with pytest.raises(ValueError, match="per_scenario"):
            fit_cost_weights({"serial_seconds": 1.0, "speedup": 4.2})


class TestCLIBackendFlag:
    def test_sweep_accepts_backend(self, capsys):
        from repro.cli import main

        assert main([
            "sweep", "--eta", "0.05", "--samples", "64", "--backend", "python",
        ]) == 0
        out = capsys.readouterr().out
        assert "backend=python" in out

    def test_validate_accepts_backend(self, capsys):
        from repro.cli import main

        assert main([
            "validate", "--eta", "0.05", "--backend", "auto",
        ]) == 0
        assert "DES agrees       : True" in capsys.readouterr().out

    def test_grid_runs_on_the_pool_with_jobs(self, capsys):
        from repro.cli import main

        assert main([
            "grid", "--devices", "3", "--etas", "0.05", "--jobs", "2",
        ]) == 0
        assert "scenario" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["gpu", "pooled", "native"])
    def test_bad_backend_rejected(self, name):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--eta", "0.05", "--backend", name])

    def test_unavailable_backend_exits_cleanly(self, monkeypatch, capsys):
        """--backend numpy on a base install: a one-line error and exit
        code 2, not a BackendUnavailable traceback."""
        from repro.cli import main

        monkeypatch.setattr(_np, "np", None)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--eta", "0.05", "--samples", "64",
                  "--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "not available" in capsys.readouterr().err
