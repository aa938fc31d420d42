"""BENCH-PARALLEL -- execution-path wall-clock on fixed workloads.

Not a paper figure: the performance-trajectory tracker for the runtime.
Runs one fixed, deterministic workload -- a uniform phase-offset sweep
of the synthesized symmetric eta=0.02 pair -- through every execution
path the runtime has, asserts they are bit-identical, and records the
timings in ``results/BENCH_parallel.json`` so successive changes can be
compared::

    python benchmarks/bench_parallel_speedup.py --jobs 2

The script owns its sections of the JSON and read-modify-writes the
file: sections written by other scripts (``service``, from
``bench_service_load.py``) survive a rerun.

**Headline.** ``speedup`` is the best measured configuration against
the in-process ``numpy`` kernel -- the fastest thing a user gets with no
pool at all -- so a value of 1.0 means no configuration beats it.  The
uncached pure-python loop is kept as the labelled ``reference`` row,
never as the denominator.

Phases:

* **pattern build** -- cold (fresh registry) vs registry-warm.
* **sweep** -- the fixed sweep through the uncached reference, the
  ``python`` and ``numpy`` kernels in-process, and the
  persistent pool at ``--jobs`` workers, cold and warm.  numpy ==
  python bit-identity is a hard exit gate; a perf floor requires the
  numpy kernel to stay >= 3x over python.
* **critical-offset enumeration** on Disco 101x103 (a ~156k-offset
  critical set), python reference vs the vectorized kernel,
  bit-identity hard-gated.
* **spawn pool cold start** -- the fixed sweep through a private
  spawn-context pool: worker boot, each worker's own pattern build and
  the sweep, bit-identity hard-gated.
* **DES spot checks** -- in-process vs the persistent pool.
* **cost fit** -- measured per-scenario grid wall-clock, regressed by
  :func:`repro.parallel.fit_cost_weights` and recorded next to the
  pinned :data:`repro.parallel.COST_WEIGHTS` (with their ratio) so the
  drift between this machine and the planner's prices stays visible.
  The fit is never installed: every phase prices with the pinned pair.
* **worst_case** -- the adaptive-fidelity ladder behind
  ``Session.worst_case`` over the 13-family equivalence zoo plus two
  heavy Disco pairs: exact mode hard-gated bit-identical to the
  pre-ladder engine composition, bounded mode rerun under a 100 ms
  budget.  Every family records ``budget_ratio`` (bounded seconds /
  budget; recorded only), and a perf floor requires at least one family
  where bounded mode met the budget that exact mode exceeded.
* **store** -- the checked-in golden campaign run cold and warm against
  a fresh result store: the warm pass must be 100% hits with zero
  re-execution and the golden CSVs regenerated from the store must be
  byte-identical to the pinned files (both hard exit gates).

``--no-perf-floors`` records the floored ratios without asserting them
(shared or overloaded runners).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from repro.backends import (
    available_backends,
    default_backend_name,
    numpy_version,
    SweepParams,
)
from repro.backends.pooled import PooledBackend, shutdown_pooled_backends
from repro.core.optimal import synthesize_symmetric
from repro.core.sequences import BeaconSchedule, NDProtocol, ReceptionSchedule
from repro.parallel import (
    COST_WEIGHTS,
    derive_seed,
    fit_cost_weights,
    get_listening_cache,
    invalidate_listening_caches,
    ParallelSweep,
)
from repro.parallel.schedule import cost_components
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
    critical_offsets,
    ReceptionModel,
    summarize_outcomes,
    sweep_offsets,
)
from repro.simulation.runner import (
    _run_scenario,
    _select_spot_check_offsets,
    _verified_worst_case_impl,
)
from repro.workloads import dense_network, scenario_grid

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

# Fixed workload: keep these stable across PRs so the JSON series stays
# comparable.
OMEGA = 32
ETA = 0.02
OFFSET_STRIDE = 997  # prime: exercises every residue class of the pattern
N_OFFSETS = 6000
HORIZON_MULTIPLE = 3
N_SPOT_CHECKS = 8  # DES replays per spot-check phase (fixed subset)


def build_workload():
    protocol, design = synthesize_symmetric(OMEGA, ETA)
    offsets = [i * OFFSET_STRIDE for i in range(N_OFFSETS)]
    horizon = design.worst_case_latency * HORIZON_MULTIPLE
    return protocol, offsets, horizon


def best_of(repeats: int, fn):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


# Worst-case ladder phase (PR 10): the per-query budget bounded mode is
# measured against, and the engine knobs shared by every run in the
# phase -- identical on the exact side and the legacy reference so the
# bit-identity gate compares like with like.
WC_BUDGET_MS = 100.0
WC_SLOT = 200
WC_OMEGA = 16
WC_SPOT_CHECKS = 4


def _wc_pair(proto):
    return proto.device(Role.E), proto.device(Role.F)


def _wc_float_pi_pair():
    """Non-integer periods: exercises the uncached fallback paths."""
    adv = NDProtocol(
        beacons=BeaconSchedule.uniform(1, 100.1, 2),
        reception=ReceptionSchedule.single_window(25, 600),
    )
    scan = NDProtocol(
        beacons=BeaconSchedule.uniform(2, 150, 3),
        reception=ReceptionSchedule.single_window(40.5, 350.25),
    )
    return adv, scan


def worst_case_zoo():
    """The 13-family equivalence zoo (mirrors
    ``tests/test_parallel_equivalence_zoo.py``) plus two heavier Disco
    pairs: ``disco-7x13``, the frontier family -- its ~2.5k-offset
    exact sweep (plus DES cross-checks) overruns a 100 ms budget while
    the bounded ladder answers well inside it -- and ``disco-101x103``,
    a 10.4 s-hyperperiod stress row whose per-query setup alone
    (window materialization over a 125 M-us horizon) exceeds the
    budget, recording where the linear cost model's budgets stop being
    achievable.
    """
    zoo = {
        "disco": lambda: _wc_pair(
            Disco(3, 5, slot_length=WC_SLOT, omega=WC_OMEGA)
        ),
        "uconnect": lambda: _wc_pair(
            UConnect(5, slot_length=WC_SLOT, omega=WC_OMEGA)
        ),
        "searchlight": lambda: _wc_pair(
            Searchlight(4, slot_length=WC_SLOT, omega=WC_OMEGA)
        ),
        "diffcodes": lambda: _wc_pair(
            Diffcodes(2, slot_length=WC_SLOT, omega=WC_OMEGA)
        ),
        "grid-quorum": lambda: _wc_pair(
            GridQuorum(3, slot_length=WC_SLOT, omega=WC_OMEGA)
        ),
        "nihao": lambda: _wc_pair(Nihao(3, slot_length=100, omega=WC_OMEGA)),
        "birthday": lambda: _wc_pair(
            Birthday(
                p_tx=0.2, p_rx=0.2, slot_length=100, omega=WC_OMEGA,
                horizon_slots=64, seed=5,
            )
        ),
        "pi-bidirectional": lambda: _wc_pair(
            PeriodicInterval(300, 700, 150, omega=WC_OMEGA, bidirectional=True)
        ),
        "pi-adv-scan": lambda: _wc_pair(
            PeriodicInterval(
                300, 700, 150, omega=WC_OMEGA, bidirectional=False
            )
        ),
        "optimal-slotless": lambda: _wc_pair(
            OptimalSlotless(eta=0.05, omega=32)
        ),
        "optimal-asymmetric": lambda: _wc_pair(
            OptimalAsymmetric(eta_e=0.1, eta_f=0.05, omega=32)
        ),
        "correlated-one-way": lambda: _wc_pair(
            CorrelatedOneWay(k=4, window=64, omega=32)
        ),
        "float-period-pi": _wc_float_pi_pair,
        "disco-7x13": lambda: _wc_pair(
            Disco(7, 13, slot_length=1000, omega=32)
        ),
        "disco-101x103": lambda: _wc_pair(
            Disco(101, 103, slot_length=1000, omega=32)
        ),
    }
    return zoo


def _wc_horizon(protocol_e, protocol_f):
    """12x the largest schedule period -- the ladder test suite's
    horizon rule, so the bench measures the same queries it gates."""
    period = 1
    for proto in (protocol_e, protocol_f):
        if proto.beacons is not None:
            period = max(period, int(proto.beacons.period))
        if proto.reception is not None:
            period = max(period, int(proto.reception.period))
    return period * 12


def _legacy_worst_case(protocol_e, protocol_f, horizon, sweeper):
    """The pre-ladder engine composition, verbatim: critical enumeration
    (with the sampled fallback capped -- this PR's exactness fix), full
    sweep, DES spot checks on the worst offsets.  What exact mode must
    stay bit-identical to."""
    try:
        offsets = critical_offsets(
            protocol_e,
            protocol_f,
            omega=WC_OMEGA,
            max_count=200_000,
            backend=sweeper._resolve_backend(),
        )
    except ValueError:
        hyper = math.lcm(protocol_e.hyperperiod(), protocol_f.hyperperiod())
        step = max(1, hyper // 4096)
        offsets = list(range(0, hyper, step))[:4096]
    report = sweeper.sweep_offsets(
        protocol_e, protocol_f, offsets, horizon, ReceptionModel.POINT, 0
    )
    check_offsets = _select_spot_check_offsets(
        offsets,
        (report.worst_offset_one_way, report.worst_offset_two_way),
        WC_SPOT_CHECKS,
    )
    checks = sweeper.spot_check_pairs(
        protocol_e, protocol_f, check_offsets, horizon,
        ReceptionModel.POINT, 0,
    )
    agrees = all(
        analytic.e_discovered_by_f == des.e_discovered_by_f
        and analytic.f_discovered_by_e == des.f_discovered_by_e
        for analytic, des in checks
    )
    return report, agrees, len(offsets)


#: Keys earlier versions of this script wrote for execution paths that
#: no longer exist (per-sweep pools, the numba tier, entry-level
#: campaign threads); dropped on rewrite so they cannot pass for
#: current measurements.
RETIRED_SECTIONS = (
    "serial_seconds", "parallel_seconds", "numba_version", "campaign",
)


def write_sections(output: Path, sections: dict) -> None:
    """Read-modify-write ``output``: replace the top-level keys in
    ``sections`` (this script's), keep every other script's."""
    payload = {}
    if output.exists():
        payload = json.loads(output.read_text(encoding="utf-8"))
    for key in RETIRED_SECTIONS:
        payload.pop(key, None)
    payload.update(sections)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output", default=str(RESULTS_DIR / "BENCH_parallel.json")
    )
    parser.add_argument(
        "--no-perf-floors",
        action="store_true",
        help="record the 3x numpy floor and the worst-case frontier "
        "without asserting them (for shared or overloaded runners)",
    )
    args = parser.parse_args(argv)

    protocol, offsets, horizon = build_workload()
    print(
        f"workload: {len(offsets)} offsets, horizon {horizon} us, "
        f"eta={protocol.eta:.6f}"
    )

    # Phase: pattern build, cold (fresh registry) vs warm (keyed hit).
    invalidate_listening_caches()
    start = time.perf_counter()
    get_listening_cache(protocol)
    cache_cold_s = time.perf_counter() - start
    start = time.perf_counter()
    get_listening_cache(protocol)
    cache_warm_s = time.perf_counter() - start
    print(
        f"pattern build : {cache_cold_s:.3f} s cold, "
        f"{cache_warm_s * 1e6:.0f} us registry-warm"
    )

    # Phase: the fixed offset sweep through every execution path.  The
    # uncached loop is the labelled reference row; the headline compares
    # the best configuration against the in-process numpy kernel.
    reference_s, reference_report = best_of(
        args.repeats,
        lambda: sweep_offsets(protocol, protocol, offsets, horizon),
    )
    print(f"reference    : {reference_s:.3f} s uncached loop "
          f"(best of {args.repeats})")
    identical = True
    backend_timings: dict = {}
    configurations: dict = {}

    def sweep_through(engine):
        return engine.sweep_offsets(protocol, protocol, offsets, horizon)

    python_s, python_report = best_of(
        args.repeats, lambda: sweep_through(ParallelSweep(jobs=1, backend="python"))
    )
    backend_timings["python_seconds"] = python_s
    configurations["python"] = python_s
    kernel_identical = python_report == reference_report
    identical = identical and kernel_identical
    print(f"kernel python: {python_s:.3f} s   bit-identical: {kernel_identical}")
    kernel_speedup = None
    numpy_s = None
    if "numpy" in available_backends():
        numpy_s, numpy_report = best_of(
            args.repeats,
            lambda: sweep_through(ParallelSweep(jobs=1, backend="numpy")),
        )
        backend_timings["numpy_seconds"] = numpy_s
        configurations["numpy"] = numpy_s
        kernel_identical = numpy_report == python_report == reference_report
        identical = identical and kernel_identical
        kernel_speedup = python_s / numpy_s if numpy_s > 0 else float("inf")
        backend_timings["kernel_speedup_numpy_over_python"] = kernel_speedup
        print(
            f"kernel numpy : {numpy_s:.3f} s   {kernel_speedup:.2f}x over "
            f"python   bit-identical: {kernel_identical}"
        )
    # The persistent pool: the first sweep pays pool startup, later
    # sweeps reuse warm workers.
    pooled = ParallelSweep(jobs=args.jobs)
    pooled_cold_s, pooled_report = best_of(1, lambda: sweep_through(pooled))
    pooled_warm_s, pooled_warm_report = best_of(
        args.repeats, lambda: sweep_through(pooled)
    )
    backend_timings["pooled_cold_seconds"] = pooled_cold_s
    backend_timings["pooled_warm_seconds"] = pooled_warm_s
    configurations[f"jobs={args.jobs}"] = pooled_warm_s
    pooled_identical = pooled_report == pooled_warm_report == reference_report
    identical = identical and pooled_identical
    print(
        f"jobs={args.jobs:<2}      : {pooled_cold_s:.3f} s cold, "
        f"{pooled_warm_s:.3f} s warm   bit-identical: {pooled_identical}"
    )
    shutdown_pooled_backends()

    best_name = min(configurations, key=configurations.get)
    baseline_name = "numpy" if numpy_s is not None else "python"
    baseline_s = configurations[baseline_name]
    best_s = configurations[best_name]
    speedup = baseline_s / best_s if best_s > 0 else float("inf")
    print(
        f"headline     : best {best_name} {best_s:.3f} s vs in-process "
        f"{baseline_name} {baseline_s:.3f} s -> {speedup:.2f}x"
    )

    # Phase: critical-offset enumeration on a large-zoo pair.  The
    # python reference double loop vs the vectorized kernel; bit-identity
    # between the full sorted offset lists is a hard exit gate.
    enum_proto = Disco(101, 103, slot_length=1000, omega=32)
    enum_e, enum_f = enum_proto.device(Role.E), enum_proto.device(Role.F)
    enum_python_s, enum_python = best_of(
        args.repeats,
        lambda: critical_offsets(enum_e, enum_f, omega=32),
    )
    backend_timings["enumeration_python_seconds"] = enum_python_s
    backend_timings["enumeration_offsets"] = len(enum_python)
    print(
        f"enum python  : {enum_python_s:.3f} s "
        f"({len(enum_python)} critical offsets, Disco 101x103)"
    )
    if "numpy" in available_backends():
        enum_numpy_s, enum_numpy = best_of(
            args.repeats,
            lambda: critical_offsets(enum_e, enum_f, omega=32, backend="numpy"),
        )
        enum_identical = enum_numpy == enum_python
        identical = identical and enum_identical
        enum_speedup = (
            enum_python_s / enum_numpy_s if enum_numpy_s > 0 else float("inf")
        )
        backend_timings["enumeration_numpy_seconds"] = enum_numpy_s
        backend_timings["enumeration_speedup_numpy_over_python"] = enum_speedup
        print(
            f"enum numpy   : {enum_numpy_s:.3f} s   {enum_speedup:.2f}x over "
            f"python   bit-identical: {enum_identical}"
        )

    # Phase: pool cold start under spawn, the start method whose workers
    # inherit nothing: each one boots an interpreter and builds the
    # pattern in its own registry on its first chunk.  A private pool,
    # so the run reuses no earlier workers; one cold sweep.
    private = PooledBackend(jobs=args.jobs, mp_context="spawn")
    try:
        spawn_s, spawn_outcomes = best_of(
            1,
            lambda: private.evaluate_offsets_batch(
                SweepParams(protocol, protocol, horizon, ReceptionModel.POINT),
                offsets,
            ),
        )
    finally:
        private.close()
    spawn_identical = summarize_outcomes(spawn_outcomes) == reference_report
    identical = identical and spawn_identical
    backend_timings["pooled_spawn_cold_seconds"] = spawn_s
    print(
        f"pooled spawn : {spawn_s:.3f} s cold   "
        f"bit-identical: {spawn_identical}"
    )

    # Phase: DES spot-check replays (the worst-case tail), in-process vs
    # one submission per offset over the persistent pool.
    spot_offsets = offsets[:: max(1, len(offsets) // N_SPOT_CHECKS)][
        :N_SPOT_CHECKS
    ]
    spot_serial_s, spot_serial = best_of(
        1,
        lambda: ParallelSweep(jobs=1).spot_check_pairs(
            protocol, protocol, spot_offsets, horizon
        ),
    )
    spot_pooled_s, spot_pooled = best_of(
        1,
        lambda: pooled.spot_check_pairs(
            protocol, protocol, spot_offsets, horizon
        ),
    )
    shutdown_pooled_backends()
    spot_identical = spot_serial == spot_pooled
    identical = identical and spot_identical
    print(
        f"DES spot x{len(spot_offsets)} : {spot_serial_s:.3f} s in-process, "
        f"{spot_pooled_s:.3f} s jobs={args.jobs} (incl. pool start)   "
        f"bit-identical: {spot_identical}"
    )

    # Phase: measured per-scenario grid wall-clock, fitted to show the
    # drift from the pinned cost weights.  Serial, one run per
    # scenario, seeds derived exactly as map_scenarios derives them;
    # the recorded event-rate components are what fit_cost_weights
    # regresses seconds onto.
    grid = scenario_grid(
        dense_network, n_devices=[3, 6], eta=[0.02, 0.05], seed=[0]
    )
    per_scenario = []
    for index, scenario in enumerate(grid):
        start = time.perf_counter()
        _run_scenario(scenario, seed=derive_seed(0, index))
        seconds = time.perf_counter() - start
        beacon_component, window_component = cost_components(
            scenario.protocols, scenario.horizon
        )
        per_scenario.append(
            {
                "name": scenario.name,
                "beacon_component": beacon_component,
                "window_component": window_component,
                "seconds": seconds,
            }
        )
    fitted = fit_cost_weights({"per_scenario": per_scenario})
    drift = [fit / pinned for fit, pinned in zip(fitted, COST_WEIGHTS)]
    print(
        f"cost fit     : {len(per_scenario)} scenarios -> weights "
        f"(beacon={fitted[0]:.3e}, window={fitted[1]:.3e}); "
        f"pinned (beacon={COST_WEIGHTS[0]:.3e}, "
        f"window={COST_WEIGHTS[1]:.3e})"
    )

    # Phase: adaptive-fidelity worst-case ladder.  Exact mode must stay
    # bit-identical to the pre-ladder engine composition across the
    # 13-family zoo -- a hard exit gate, folded into ``identical``.
    # Bounded mode reruns every family under a 100 ms budget, priced
    # with the pinned cost weights like every user query.
    # ``budget_ratio`` records how far each bounded query over- or
    # undershot its budget.
    wc_rows = []
    wc_identical = True
    wc_budget_met = []
    wc_exact_over = []
    wc_sweeper = ParallelSweep(jobs=1)
    for family, build in worst_case_zoo().items():
        wc_e, wc_f = build()
        wc_horizon = _wc_horizon(wc_e, wc_f)
        legacy_report, legacy_agrees, legacy_n = _legacy_worst_case(
            wc_e, wc_f, wc_horizon, wc_sweeper
        )
        exact_s, exact_outcome = best_of(
            1,
            lambda: _verified_worst_case_impl(
                wc_e, wc_f, wc_horizon, omega=WC_OMEGA,
                des_spot_checks=WC_SPOT_CHECKS, sweeper=wc_sweeper,
            ),
        )
        family_identical = (
            exact_outcome.analytic == legacy_report
            and exact_outcome.des_agrees == legacy_agrees
            and exact_outcome.offsets_checked == legacy_n
        )
        wc_identical = wc_identical and family_identical
        bounded_s, bounded_outcome = best_of(
            1,
            lambda: _verified_worst_case_impl(
                wc_e, wc_f, wc_horizon, omega=WC_OMEGA,
                des_spot_checks=WC_SPOT_CHECKS, sweeper=wc_sweeper,
                fidelity="auto", budget_ms=WC_BUDGET_MS,
            ),
        )
        truth = exact_outcome.analytic.worst_one_way
        lo, hi = bounded_outcome.bound_interval
        accuracy = None
        if truth and lo is not None:
            accuracy = lo / truth
        budget_ratio = bounded_s * 1000.0 / WC_BUDGET_MS
        if budget_ratio <= 1.0:
            wc_budget_met.append(family)
        if exact_s * 1000.0 > WC_BUDGET_MS:
            wc_exact_over.append(family)
        wc_rows.append(
            {
                "family": family,
                "horizon": wc_horizon,
                "exact_seconds": exact_s,
                "bounded_seconds": bounded_s,
                "budget_ratio": budget_ratio,
                "exact_offsets": exact_outcome.offsets_checked,
                "bounded_offsets": bounded_outcome.offsets_checked,
                "bounded_fidelity": bounded_outcome.fidelity,
                "bound_interval": [lo, hi],
                "exact_worst_one_way": truth,
                "accuracy": accuracy,
                "exact_bit_identical": family_identical,
            }
        )
        print(
            f"worst-case   : {family:<20} exact {exact_s * 1000:8.1f} ms"
            f"   bounded {bounded_s * 1000:7.1f} ms"
            f" ({budget_ratio:4.2f}x budget) [{bounded_outcome.fidelity}]"
            f"   bit-identical: {family_identical}"
        )
    identical = identical and wc_identical
    wc_frontier = sorted(set(wc_exact_over) & set(wc_budget_met))
    print(
        f"worst-case   : exact bit-identical: {wc_identical}   bounded "
        f"met {WC_BUDGET_MS:.0f} ms where exact overran: {wc_frontier}"
    )
    worst_case_phase = {
        "budget_ms": WC_BUDGET_MS,
        "spot_checks": WC_SPOT_CHECKS,
        "exact_bit_identical": wc_identical,
        "families": wc_rows,
        "budget_ratio_max": max(row["budget_ratio"] for row in wc_rows),
        "bounded_met_budget": wc_budget_met,
        "exact_over_budget": wc_exact_over,
        "frontier_families": wc_frontier,
    }

    # Phase: the content-addressed result store on the golden campaign.
    # The cold run executes all sweeps and writes back; the warm rerun
    # must be 100% store hits with zero sweep re-execution, and the
    # golden CSVs regenerated from store payloads must be byte-identical
    # to the pinned files -- both are hard exit gates.
    import shutil
    import tempfile

    from repro.campaign import (
        build_golden_campaign,
        CampaignRunner,
        regenerate_golden_csvs,
    )
    from repro.store import ResultStore

    store_dir = Path(tempfile.mkdtemp(prefix="bench-store-"))
    try:
        store = ResultStore(store_dir / "store")
        campaign = build_golden_campaign()
        start = time.perf_counter()
        cold = CampaignRunner(
            campaign, store, manifest_path=store_dir / "cold.json"
        ).run()
        store_cold_s = time.perf_counter() - start
        start = time.perf_counter()
        warm = CampaignRunner(
            campaign, store, manifest_path=store_dir / "warm.json"
        ).run()
        store_warm_s = time.perf_counter() - start
        hit_rate = warm["hits"] / warm["total"]
        store_ok = (
            cold["complete"] and warm["complete"]
            and warm["executed"] == 0 and hit_rate >= 0.9
        )
        regenerated = regenerate_golden_csvs(store, store_dir / "csv")
        csv_ok = all(
            path.read_bytes() == (RESULTS_DIR / path.name).read_bytes()
            for path in regenerated
        )
        identical = identical and store_ok and csv_ok
        sweep_per_entry = store_cold_s / cold["total"]
        lookup_per_entry = store_warm_s / warm["total"]
        print(
            f"store        : {store_cold_s:.3f} s cold ({cold['executed']} "
            f"executed), {store_warm_s:.3f} s warm ({warm['hits']} hits, "
            f"hit rate {hit_rate:.0%}, 0 re-executions: "
            f"{warm['executed'] == 0})"
        )
        print(
            f"store lookup : {lookup_per_entry * 1e3:.2f} ms/entry vs "
            f"{sweep_per_entry * 1e3:.2f} ms/entry sweep   "
            f"golden CSVs byte-identical: {csv_ok}"
        )
        store_phase = {
            "campaign_entries": cold["total"],
            "cold_seconds": store_cold_s,
            "warm_seconds": store_warm_s,
            "warm_hit_rate": hit_rate,
            "warm_executed": warm["executed"],
            "lookup_seconds_per_entry": lookup_per_entry,
            "sweep_seconds_per_entry": sweep_per_entry,
            "lookup_vs_sweep_speedup": (
                sweep_per_entry / lookup_per_entry
                if lookup_per_entry > 0 else float("inf")
            ),
            "golden_csvs_bit_identical": csv_ok,
        }
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    # Perf floors: wall-clock ratios flake on shared runners, so the
    # numpy floor sits far below the reference-machine number (~6x) and
    # --no-perf-floors turns the floors into recorded-only rows.
    floor_failures = []
    if not args.no_perf_floors:
        if kernel_speedup is not None and kernel_speedup < 3.0:
            floor_failures.append(
                f"numpy kernel speedup {kernel_speedup:.2f}x over python "
                f"fell below the 3x floor"
            )
        if not wc_frontier:
            floor_failures.append(
                f"no zoo family had bounded mode meet the "
                f"{WC_BUDGET_MS:.0f} ms budget while exact mode exceeded it"
            )
    sections = {
        "experiment": "BENCH-PARALLEL",
        "workload": {
            "omega": OMEGA,
            "eta": ETA,
            "n_offsets": len(offsets),
            "offset_stride": OFFSET_STRIDE,
            "horizon": horizon,
            "n_spot_checks": len(spot_offsets),
        },
        "jobs": args.jobs,
        "repeats": args.repeats,
        "backend": default_backend_name(),
        "numpy_version": numpy_version(),
        "headline": {
            "baseline": baseline_name,
            "baseline_seconds": baseline_s,
            "best": best_name,
            "best_seconds": best_s,
            "configurations": configurations,
        },
        "speedup": speedup,
        "reference": {
            "label": "uncached pure-python loop (reference only, not a "
                     "baseline)",
            "seconds": reference_s,
        },
        "bit_identical": identical,
        "phases": {
            "cache_build_cold_seconds": cache_cold_s,
            "cache_build_warm_seconds": cache_warm_s,
            "des_spot_inprocess_seconds": spot_serial_s,
            "des_spot_pooled_seconds": spot_pooled_s,
        },
        "backends": backend_timings,
        "store": store_phase,
        "worst_case": worst_case_phase,
        "per_scenario": per_scenario,
        "fitted_cost_weights": {
            "beacon": fitted[0],
            "window": fitted[1],
        },
        "pinned_cost_weights": {
            "beacon": COST_WEIGHTS[0],
            "window": COST_WEIGHTS[1],
        },
        "fitted_over_pinned": {
            "beacon": drift[0],
            "window": drift[1],
        },
        "worst_one_way": reference_report.worst_one_way,
        "worst_two_way": reference_report.worst_two_way,
        "perf_floors": {
            "numpy_over_python": 3.0,
            "worst_case_bounded_budget_ms": WC_BUDGET_MS,
            "enforced": not args.no_perf_floors,
            "failures": floor_failures,
        },
    }
    output = Path(args.output)
    write_sections(output, sections)
    print(f"-> {output}")

    if not identical:
        print("FAIL: an execution path diverged from the reference")
        return 1
    if floor_failures:
        for failure in floor_failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
