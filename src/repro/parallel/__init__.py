"""Parallel orchestration of independent simulation runs.

The sweep workloads behind the paper's validation experiments are
embarrassingly parallel -- one exact computation per phase offset, one
DES replay per spot-check, one event-driven run per scenario grid
point.  This package shards them across worker processes while
guaranteeing results *bit-identical* to the serial path (same iteration
order, same tie-breaking, same derived seeds), so everything downstream
-- tier-1 tests, paper-figure reproductions -- is unchanged, only
faster.

* :class:`ParallelSweep` -- the execution engine: ``jobs <= 1`` runs
  in-process, ``jobs > 1`` shards chunked offset sweeps,
  one-submission-per-offset DES spot-checks and cost-model-sorted
  work-stealing scenario grids (:mod:`repro.parallel.schedule`) over
  the shared persistent pool.  The *kernel* that runs is a pluggable
  :mod:`repro.backends` selection (``backend="auto"|"python"|"numpy"``):
  this package owns process orchestration, the backends package owns
  the math.
* :class:`ListeningCache` -- the memoized listening-set pattern,
  bit-identical to the exact computation by construction (the
  ``CachedPairEvaluator`` hot loop on top of it lives in
  :mod:`repro.backends.python_loop`).
* :func:`get_listening_cache` -- the process-wide keyed registry
  (protocol fingerprint -> pattern) behind every kernel, in the parent
  and in every pool worker alike.
* :func:`derive_seed` -- chunking- and scheduling-invariant per-item
  seeding.
* :data:`~repro.parallel.schedule.COST_WEIGHTS` -- the one pinned
  price list of the grid scheduler and the worst-case ladder planner;
  submission order and tier plans are pure functions of the spec.
  :func:`fit_cost_weights` fits measured per-scenario wall-clock
  (``results/BENCH_parallel.json``) so drift from the pin stays visible.

Cache invalidation contract
---------------------------

Registry keys are :func:`protocol_fingerprint` content hashes of
immutable schedule objects, so **entries can never go stale**: a
protocol cannot be mutated, only replaced by a new object with a new
fingerprint.  :func:`invalidate_listening_caches` exists to reclaim
memory (or force cold rebuilds in benchmarks), never for correctness;
the registry additionally self-bounds via LRU eviction.  Forked workers
inherit the parent registry (safe: entries are immutable); spawned
workers start empty and build each pattern on their first chunk.

Persistent-pool lifecycle contract
----------------------------------

Every ``jobs > 1`` run uses the **persistent** pool of
:mod:`repro.backends.pooled`, shared per ``(kernel, jobs,
mp_context)`` shape: created lazily on the first sharded batch, reused
across offset sweeps, DES spot-check batches *and* scenario grids, shut
down when the last owning :class:`repro.api.Session` exits (or
explicitly via ``PooledBackend.close()`` / ``shutdown_pooled_backends()``,
with an ``atexit`` backstop) so no interpreter exit leaks worker
processes.  Persistent workers hold no per-sweep initializer state:
work arrives fully parameterized and patterns resolve through each
worker's own keyed registry, which stays warm across sweeps: a worker
builds each pattern at most once for the pool's lifetime, and
fork-start workers begin with whatever the parent had built.
"""

from .cache import (
    derive_seed,
    get_listening_cache,
    invalidate_listening_caches,
    ListeningCache,
    listening_cache_stats,
    protocol_fingerprint,
)
from .executor import ParallelSweep
from .schedule import (
    COST_WEIGHTS,
    estimate_scenario_cost,
    fit_cost_weights,
    plan_longest_first,
)

__all__ = [
    "COST_WEIGHTS",
    "derive_seed",
    "estimate_scenario_cost",
    "fit_cost_weights",
    "get_listening_cache",
    "invalidate_listening_caches",
    "ListeningCache",
    "listening_cache_stats",
    "ParallelSweep",
    "plan_longest_first",
    "protocol_fingerprint",
]

