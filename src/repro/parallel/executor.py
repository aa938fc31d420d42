"""The execution engine for offset sweeps, spot-checks and grids.

The experiments behind every bound-validation figure reduce to many
*independent* evaluations -- one exact pair computation per phase
offset, one DES replay per spot-check offset, or one event-driven
network run per grid point.  :class:`ParallelSweep` runs them with one
switch, ``jobs``:

* ``jobs <= 1`` runs everything in-process through the selected kernel;
* ``jobs > 1`` shards everything over the shared persistent
  :class:`repro.backends.pooled.PooledBackend` for that
  ``(kernel, jobs, mp_context)`` shape -- offset sweeps as contiguous
  chunks (each worker resolving patterns through its own keyed
  registry), DES spot checks one submission per offset, grid scenarios one submission per scenario
  in the cost-model-sorted work-stealing order of
  :mod:`repro.parallel.schedule`.

Either way the results are bit-identical to the serial path:

* workers return *per-offset outcomes*, and the final report is built
  by the very same :func:`repro.simulation.analytic.summarize_outcomes`
  the serial sweep uses, over the same offset order -- aggregation
  rules (strict-``>`` tie-breaking, left-to-right mean summation) exist
  in one place, so the pooled path cannot drift from them;
* seeded runs derive each item's seed from its *global* index via
  :func:`repro.parallel.cache.derive_seed`, never from its submission
  slot, so scheduling is invisible to the RNG.

Grids are resumable: :meth:`ParallelSweep.map_scenarios` takes a
``checkpoint`` mapping (grid index -> result), skips the indices already
in it, and stores each scenario into it the moment it finishes --
in-process, or as its pool future completes.  A caller that retries
after a crash (a SIGKILLed pool child) re-runs only the missing
scenarios, and since seeds follow the global index, the resumed grid is
bit-identical to an uninterrupted one.

Worker payloads are plain protocols/offsets sent through module-level
functions; nothing closes over simulator state, so everything pickles
under both fork and spawn start methods.
"""

from __future__ import annotations

import os
from concurrent.futures import as_completed
from typing import MutableMapping

from ..core.sequences import NDProtocol
from ..simulation.analytic import (
    DiscoveryOutcome,
    mutual_discovery_times,
    ReceptionModel,
    summarize_outcomes,
    SweepReport,
)
from .cache import derive_seed
from .schedule import plan_longest_first

__all__ = ["ParallelSweep"]


# ----------------------------------------------------------------------
# Worker entry points (module-level: picklable by name)
# ----------------------------------------------------------------------


def _spot_check_replay(
    protocol_e: NDProtocol,
    protocol_f: NDProtocol,
    offset: int,
    horizon: int,
    model: ReceptionModel,
    turnaround: int,
) -> tuple[DiscoveryOutcome, DiscoveryOutcome]:
    """One spot check: exact analytic outcome plus a full DES replay.

    The analytic side deliberately uses the *uncached*
    :func:`repro.simulation.analytic.mutual_discovery_times`, keeping
    the spot check an independent cross-validation of both the DES and
    the pattern-cache layers the sweep itself ran through.  The single
    shared body is what makes the pooled and in-process spot-check
    paths identical by construction.
    """
    from ..simulation.runner import simulate_pair

    analytic = mutual_discovery_times(
        protocol_e, protocol_f, offset, horizon, model, turnaround
    )
    des = simulate_pair(
        protocol_e, protocol_f, offset, horizon, model, turnaround
    )
    return analytic, des


def _network_one(config: dict, item: tuple[int, object]):
    """Run one ``(global_index, scenario)`` network simulation.

    The global index rides along only to derive the scenario's
    schedule-invariant seed; result placement uses the index map kept by
    the submitting side.
    """
    from ..simulation.runner import _run_scenario

    global_index, scenario = item
    return _run_scenario(
        scenario,
        seed=derive_seed(config["base_seed"], global_index),
        reception_model=config["reception_model"],
        turnaround=config["turnaround"],
        advertising_jitter=config["advertising_jitter"],
    )


class ParallelSweep:
    """Run independent evaluations in-process or over the persistent pool.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` uses the CPU count, ``<= 1`` runs
        everything in-process, ``> 1`` shards over the shared
        persistent pool of that size.
    mp_context:
        ``multiprocessing`` start-method name for the pool; defaults to
        ``fork`` where available (Linux) and ``spawn`` elsewhere.
        Results are identical either way -- workers hold no inherited
        mutable state.
    backend:
        Sweep-kernel selection (:mod:`repro.backends`): ``"python"``,
        ``"numpy"``, ``"auto"`` (default: NumPy kernel when importable,
        python reference otherwise), or a
        :class:`repro.backends.SweepBackend` instance.  Pool workers run
        the same kernel by registry name; an unregistered custom kernel
        instance cannot be shipped by name and runs in-process, and a
        :class:`repro.backends.PooledBackend` instance is used as the
        pool itself.  Results are bit-identical for every selection.
    """

    def __init__(
        self,
        jobs: int | None = None,
        mp_context: str | None = None,
        backend="auto",
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 0:
            raise ValueError(f"jobs must be non-negative, got {jobs}")
        self.jobs = jobs
        self.mp_context = mp_context
        self.backend = backend

    # ------------------------------------------------------------------
    @classmethod
    def from_profile(cls, profile) -> "ParallelSweep":
        """Construct the executor one :class:`repro.api.RuntimeProfile`
        describes.

        The one mapping between the declarative runtime configuration
        and this engine's constructor knobs -- :class:`repro.api.Session`
        builds its engine here, so profile fields and executor
        parameters cannot drift apart silently.
        """
        return cls(
            jobs=profile.jobs,
            mp_context=profile.mp_context,
            backend=profile.backend,
        )

    # ------------------------------------------------------------------
    def _resolve_backend(self):
        """The backend this engine runs: the in-process kernel for
        ``jobs <= 1``, the shared persistent pool over that kernel for
        ``jobs > 1`` (shared per shape, so repeated sweeps reuse warm
        workers)."""
        from ..backends import get_pooled_backend, resolve_backend
        from ..backends.base import is_registered

        kernel = resolve_backend(self.backend)
        if self.jobs <= 1 or not is_registered(kernel.name):
            return kernel
        return get_pooled_backend(kernel.name, self.jobs, self.mp_context)

    def _pool(self):
        """The persistent pool to shard DES work over, or ``None`` when
        this engine runs in-process."""
        from ..backends.pooled import PooledBackend

        resolved = self._resolve_backend()
        if isinstance(resolved, PooledBackend) and resolved.jobs > 1:
            return resolved
        return None

    # ------------------------------------------------------------------
    def sweep_offsets(
        self,
        protocol_e: NDProtocol,
        protocol_f: NDProtocol,
        offsets: list[int],
        horizon: int,
        model: ReceptionModel = ReceptionModel.POINT,
        turnaround: int = 0,
    ) -> SweepReport:
        """:func:`repro.simulation.analytic.sweep_offsets` through the
        selected kernel, bit-identical to the serial call."""
        return summarize_outcomes(
            self.evaluate_offsets(
                protocol_e, protocol_f, offsets, horizon, model, turnaround
            )
        )

    # ------------------------------------------------------------------
    def evaluate_offsets(
        self,
        protocol_e: NDProtocol,
        protocol_f: NDProtocol,
        offsets: list[int],
        horizon: int,
        model: ReceptionModel = ReceptionModel.POINT,
        turnaround: int = 0,
    ) -> list[DiscoveryOutcome]:
        """:func:`repro.simulation.analytic.evaluate_offsets` through the
        selected kernel: per-offset outcomes in input order."""
        from ..backends import SweepParams

        return self._resolve_backend().evaluate_offsets_batch(
            SweepParams(protocol_e, protocol_f, horizon, model, turnaround),
            list(offsets),
        )

    # ------------------------------------------------------------------
    def spot_check_pairs(
        self,
        protocol_e: NDProtocol,
        protocol_f: NDProtocol,
        offsets: list[int],
        horizon: int,
        model: ReceptionModel = ReceptionModel.POINT,
        turnaround: int = 0,
    ) -> list[tuple[DiscoveryOutcome, DiscoveryOutcome]]:
        """Per-offset ``(analytic, DES)`` outcome pairs, in input order.

        The DES replays dominate ``Session.worst_case`` once sweeps are
        fast; each offset is an independent simulation, so with a pool
        they shard one-per-submission like the work-stealing grid path.
        Both paths run the identical computation per offset, so the
        result list is independent of ``jobs``.
        """
        offsets = list(offsets)
        pool = self._pool()
        if pool is None or len(offsets) < 2:
            return [
                _spot_check_replay(
                    protocol_e, protocol_f, offset, horizon, model, turnaround
                )
                for offset in offsets
            ]
        futures = [
            pool.submit(
                _spot_check_replay,
                protocol_e, protocol_f, offset, horizon, model, turnaround,
            )
            for offset in offsets
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    def map_scenarios(
        self,
        scenarios: list,
        base_seed: int = 0,
        reception_model: ReceptionModel = ReceptionModel.POINT,
        turnaround: int = 0,
        advertising_jitter: int = 0,
        checkpoint: MutableMapping | None = None,
    ) -> list:
        """Run one network simulation per scenario, in input order.

        Each scenario's RNG seed derives from its global index, so the
        returned list is identical whatever ``jobs`` is.  With a pool,
        scenarios are submitted individually longest-estimated-first
        (idle workers steal from the pool's shared queue) and merged
        back at their grid index.

        ``checkpoint`` (grid index -> ``NetworkResult``) makes a grid
        resumable: indices already in it are returned as stored and not
        run again, and every other scenario is stored into it the
        moment it finishes.  If a scenario raises, every scenario that
        finished is recorded first; then the exception of the lowest
        failing index propagates.
        """
        scenarios = list(scenarios)
        if checkpoint is None:
            checkpoint = {}
        config = {
            "base_seed": base_seed,
            "reception_model": reception_model,
            "turnaround": turnaround,
            "advertising_jitter": advertising_jitter,
        }
        pending = [
            index for index in range(len(scenarios)) if index not in checkpoint
        ]
        pool = self._pool()
        if pool is None or len(pending) < 2:
            for index in pending:
                checkpoint[index] = _network_one(
                    config, (index, scenarios[index])
                )
        else:
            futures = {
                pool.submit(
                    _network_one, config, (index, scenarios[index])
                ): index
                for index in plan_longest_first(scenarios)
                if index not in checkpoint
            }
            failures = {}
            for future in as_completed(futures):
                index = futures[future]
                try:
                    checkpoint[index] = future.result()
                except Exception as exc:
                    failures[index] = exc
            if failures:
                raise failures[min(failures)]
        return [checkpoint[index] for index in range(len(scenarios))]
