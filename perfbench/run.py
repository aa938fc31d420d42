"""perfbench -- the repository's benchmark of the paths users hit.

    python3 perfbench/run.py --workload campaign-cold --seed 1 \\
        --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``campaign-cold`` -- a seeded campaign lattice run into a fresh store
  by ``CampaignRunner``, each campaign in a fresh interpreter;
* ``budgeted-worst-case`` -- a closed loop of budgeted
  ``Session.worst_case`` queries over heavy families, no store;
* ``service-zipf`` -- a ``repro-nd serve`` daemon under an open Zipf
  load of store hits and cold misses, then a closed capacity loop.

With ``--trace 0`` the last stdout line is a JSON object whose
``metrics`` are the end-to-end metrics; with ``--trace 1`` the layer
wrappers of ``spans.py`` are installed and the metrics are the
per-layer ones.  Earlier lines print every metric by name and unit,
including the workload-specific ones, and the run's provenance.  The
run exits 1 when any output is wrong, 2 when the checkout lacks the
program.  ``--smoke`` shrinks every workload to a few seconds.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import time

import common
import inputs
import spans
from speed import Speed

#: Length of one open-loop block of service-zipf (see block_stats).
BLOCK_S = 4.0

E2E = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "op_p50_ms": "ms",
    "op_cpu_ms": "ms",
}

#: Workload-specific end-to-end numbers, printed on every run and
#: reported as per-layer metrics by the traced run (0 where the
#: workload does not exercise them).
NAMED = {
    "op_p90_ms": "ms",
    "op_mean_ms": "ms",
    "campaign_cold_s": "s",
    "wc_p50_ms": "ms",
    "wc_p90_ms": "ms",
    "wc_bound_gap": "ratio",
    "svc_hit_p50_ms": "ms",
    "svc_hit_p99_ms": "ms",
    "svc_miss_p50_ms": "ms",
    "svc_miss_p90_ms": "ms",
    "svc_capacity_rps": "1/s",
    "failed_ratio": "ratio",
}

_TIMED_LAYERS = (
    ("api.spec.from_dict", ()),
    ("store.fingerprint", ()),
    ("api.result.clone", ()),
    ("api.result.from_dict", ()),
    ("api.result.to_dict", ()),
    ("store.get", ()),
    ("store.put", (("bytes", "bytes", "bytes"),)),
    ("protocols.build_pair", ()),
    ("simulation.critical_offsets", (("offsets", "offsets", "count"),)),
    ("backends.kernel", (("offsets", "n", "count"),)),
    ("parallel.spot_check", (("replays", "n", "count"),)),
    ("parallel.map_scenarios", (("scenarios", "n", "count"),)),
)


def _per_layer_units() -> dict:
    units = {}
    for layer, extras in _TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.ms"] = "ms"
        units[f"{layer}.self_ms"] = "ms"
        for name, _attr, unit in extras:
            units[f"{layer}.{name}"] = unit
    for name in ("memory_hits", "disk_hits", "misses"):
        units[f"store.get.{name}"] = "count"
    units["store.get.hit_ratio"] = "ratio"
    for name in ("queries", "critical", "dense", "des", "over_budget"):
        units[f"simulation.ladder.{name}"] = "count"
    units["simulation.ladder.estimate_ratio_p50"] = "ratio"
    units["campaign.runner.executed"] = "count"
    units["campaign.runner.skipped"] = "count"
    units["campaign.runner.overhead_ms"] = "ms"
    for name in ("queue_wait_ms_p50", "queue_wait_ms_p99", "run_ms_p50",
                 "lookup_ms_p50"):
        units[f"service.{name}"] = "ms"
    for name in ("queue_depth_max", "hits", "coalesced", "computed",
                 "retries", "timeouts"):
        units[f"service.{name}"] = "count"
    units["service.coalesced_ratio"] = "ratio"
    units["wire.overhead_ms_p50"] = "ms"
    units["wire.overhead_ms_p99"] = "ms"
    units["wire.frame_bytes"] = "bytes"
    units["loadgen.late_ms_p99"] = "ms"
    units["loadgen.sent"] = "count"
    units["paper_bound.rows"] = "count"
    units["paper_bound.rows_below_1"] = "count"
    units["paper_bound.ratio_min"] = "ratio"
    units["trace.uncovered_share"] = "ratio"
    units["trace.overhead_est_ratio"] = "ratio"
    units["trace.spans"] = "count"
    units.update(NAMED)
    units.update({f"traced.{name}": unit for name, unit in E2E.items()})
    return units


PER_LAYER = _per_layer_units()


# ----------------------------------------------------------------------
# Span-derived layer metrics
# ----------------------------------------------------------------------
def layer_metrics(span_lists, window=None, divide: float = 1.0) -> dict:
    """Per-layer counts and times summed over ``span_lists`` (one list
    per traced process), divided by ``divide`` (campaigns per run)."""
    out = {f"store.get.{name}": 0.0
           for name in ("memory_hits", "disk_hits", "misses")}
    for layer, extras in _TIMED_LAYERS:
        for name in ("calls", "ms", "self_ms", *(e[0] for e in extras)):
            out[f"{layer}.{name}"] = 0.0
    uncovered_num = root_s = 0.0
    for span_list in span_lists:
        summary = spans.summarize(span_list, window)
        for layer, extras in _TIMED_LAYERS:
            entry = summary["layers"].get(layer, {})
            out[f"{layer}.calls"] += entry.get("calls", 0)
            out[f"{layer}.ms"] += entry.get("ms", 0.0)
            out[f"{layer}.self_ms"] += entry.get("self_ms", 0.0)
            for name, attr, _unit in extras:
                out[f"{layer}.{name}"] += entry.get(attr, 0)
        for name, count in spans.store_get_kinds(span_list, window).items():
            out[f"store.get.{name}"] += count
        uncovered_num += summary["uncovered_share"] * summary["root_s"]
        root_s += summary["root_s"]
    out = {key: value / divide for key, value in out.items()}
    gets = out["store.get.calls"]
    out["store.get.hit_ratio"] = (
        (out["store.get.memory_hits"] + out["store.get.disk_hits"]) / gets
        if gets else 0.0
    )
    out["trace.uncovered_share"] = uncovered_num / root_s if root_s else 0.0
    return out


def ladder_metrics(queries) -> dict:
    """Tier counts of budgeted worst-case answers; ``queries`` are
    ``(wall_ms, provenance)`` pairs."""
    out = {f"simulation.ladder.{name}": 0 for name in
           ("queries", "critical", "dense", "des", "over_budget")}
    ratios = []
    for ms, provenance in queries:
        if not provenance or provenance.get("budget_ms") is None:
            continue
        ran = {tier["tier"] for tier in provenance["tiers"] if tier.get("ran")}
        out["simulation.ladder.queries"] += 1
        for tier in ("critical", "dense", "des"):
            out[f"simulation.ladder.{tier}"] += tier in ran
        out["simulation.ladder.over_budget"] += ms > provenance["budget_ms"]
        estimated = sum(tier.get("estimated_ms", 0.0)
                        for tier in provenance["tiers"] if tier.get("ran"))
        if estimated > 0:
            ratios.append(ms / estimated)
    out["simulation.ladder.estimate_ratio_p50"] = common.median(ratios)
    return out


def block_stats(blocks) -> dict:
    """The operation-latency metrics of a run split into blocks (a
    campaign, a round of queries, four seconds of the open loop): each
    is the median over blocks of the block's statistic, so a burst that
    hits one block moves it by one rank, not by its size."""
    blocks = [block for block in blocks if block]
    return {
        "op_p50_ms": common.median([common.median(b) for b in blocks]),
        "op_p90_ms": common.median(
            [common.percentile(b, 90) for b in blocks]),
        "op_mean_ms": common.median([sum(b) / len(b) for b in blocks]),
    }


# ----------------------------------------------------------------------
# Workloads: each runs with the host-speed probe beside it, stops the
# probe once its measurements are done, and returns {"measured", "raw",
# "layers", "attempted", "failed", "errors", "detail"}.  Times in
# "measured" (the end-to-end metrics and the workload-level numbers)
# are scaled to the reference host speed (speed.py); "raw" keeps them
# unscaled.
# ----------------------------------------------------------------------
def campaign_cold(args, speed) -> dict:
    reps = []
    start = time.perf_counter()
    while len(reps) < (1 if args.smoke else 3) \
            or time.perf_counter() - start < args.seconds:
        command = ["perfbench/workers.py", "campaign", "--seed", args.seed,
                   "--rep", len(reps), "--trace", args.trace,
                   "--work", f"work-{os.getpid()}",
                   "--tag", f"{os.getpid()}-{len(reps)}"]
        reps.append(common.run_child(
            command + (["--smoke"] if args.smoke else []), timeout=150))
    speed.stop()
    for rep in reps:
        rep["setup_f"] = speed.factor(rep["start"],
                                      rep["start"] + rep["setup_s"])
        rep["run_f"] = speed.factor(rep["t0"], rep["t0"] + rep["wall_s"])
        # Rows run one after another in lattice order: scale each by
        # the host speed around its own (reconstructed) time.
        cursor = rep["t0"]
        rep["entry_f"] = []
        for ms in rep["entry_ms"]:
            rep["entry_f"].append(speed.factor_at(cursor + ms / 2000.0))
            cursor += ms / 1000.0

    def measure(scaled: bool) -> dict:
        def f(rep, kind):
            return rep[kind] if scaled else 1.0
        blocks = [[ms * (factor if scaled else 1.0)
                   for ms, factor in zip(rep["entry_ms"], rep["entry_f"])]
                  for rep in reps]
        return {
            "setup_s": common.median(
                [rep["setup_s"] * f(rep, "setup_f") for rep in reps]),
            "peak_rss_mb": common.median([rep["maxrss_mb"] for rep in reps]),
            **block_stats(blocks),
            "op_cpu_ms": common.median(
                [rep["cpu_s"] * 1000.0 / rep["entries"] * f(rep, "run_f")
                 for rep in reps]),
            "campaign_cold_s": common.median(
                [rep["wall_s"] * f(rep, "run_f") for rep in reps]),
        }

    e2e = measure(scaled=True)
    rows = list({row["label"]: row for rep in reps
                 for row in rep["bound_rows"]}.values())
    layers = {
        "campaign_cold_s": e2e.pop("campaign_cold_s"),
        "campaign.runner.executed": common.median(
            [rep["executed"] for rep in reps]),
        "campaign.runner.skipped": common.median(
            [rep["skipped"] for rep in reps]),
        "campaign.runner.overhead_ms": common.median(
            [rep["wall_s"] * 1000.0 - sum(rep["entry_ms"]) for rep in reps]),
        "paper_bound.rows": len(rows),
        "paper_bound.rows_below_1": sum(1 for r in rows if r["ratio"] < 1),
        "paper_bound.ratio_min": min((r["ratio"] for r in rows), default=0.0),
    }
    if args.trace:
        span_lists = [_load_spans(rep) for rep in reps]
        layers.update(layer_metrics(span_lists, divide=len(reps)))
        layers.update(_overhead(span_lists, [rep["span_cost_s"]
                                             for rep in reps]))
    return {
        "measured": e2e, "raw": measure(scaled=False), "layers": layers,
        "attempted": sum(rep["entries"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "errors": sorted({e for rep in reps for e in rep["errors"]}),
        "detail": {"campaigns": len(reps), "entries": reps[0]["entries"],
                   "walls_s": [rep["wall_s"] for rep in reps],
                   "speed_factors": [rep["run_f"] for rep in reps],
                   "paper_bound_rows": rows},
    }


def budgeted_worst_case(args, speed) -> dict:
    command = ["perfbench/workers.py", "wc", "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--tag", str(os.getpid())]
    if args.smoke:
        command.append("--smoke")
    setups = [common.run_child(command + ["--setup-only"], timeout=120)
              for _ in range(2)]
    main = common.run_child(command, timeout=170)
    speed.stop()
    setups.append(main)
    run_f = speed.factor(main["t0"], main["t0"] + main["wall_s"])
    queries = main["queries"]
    gaps = [(q["interval"][1] - q["interval"][0]) / q["interval"][0]
            for q in queries if q["interval"][0]]

    def measure(scaled: bool) -> dict:
        f = run_f if scaled else 1.0
        ms = [q["ms"] * f for q in queries]
        size = len(inputs.wc_round(random.Random(0), args.smoke))
        return {
            "setup_s": common.median([
                s["setup_s"] * (speed.factor(s["start"],
                                             s["start"] + s["setup_s"])
                                if scaled else 1.0)
                for s in setups]),
            "peak_rss_mb": main["maxrss_mb"],
            **block_stats(ms[i:i + size] for i in range(0, len(ms), size)),
            "op_cpu_ms": main["cpu_s"] * 1000.0 / len(queries) * f,
        }

    e2e = measure(scaled=True)
    layers = {
        "wc_p50_ms": e2e["op_p50_ms"],
        "wc_p90_ms": e2e["op_p90_ms"],
        "wc_bound_gap": common.median(gaps),
    }
    layers.update(ladder_metrics(
        [(q["ms"], {"tiers": q["tiers"], "budget_ms": inputs.WC_BUDGET_MS})
         for q in queries]))
    if args.trace:
        span_lists = [_load_spans(main)]
        layers.update(layer_metrics(span_lists))
        layers.update(_overhead(span_lists, [main["span_cost_s"]]))
    per_family = {}
    for q in queries:
        per_family.setdefault(q["family"], []).append(q["ms"])
    return {
        "measured": e2e, "raw": measure(scaled=False), "layers": layers,
        "attempted": main["attempted"], "failed": main["failed"],
        "errors": main["errors"],
        "detail": {"queries": len(queries), "speed_factor": run_f,
                   "family_p50_ms": {
                       family: common.median(values)
                       for family, values in sorted(per_family.items())}},
    }


def service_zipf(args, speed) -> dict:
    import svcload

    result = asyncio.run(
        svcload.run(args.seed, args.seconds, args.trace, args.smoke))
    speed.stop()
    to_ms = 1000.0

    def latencies(kind: str, scaled: bool) -> list:
        # Each request is scaled by the host speed around its own time.
        return [(r[5] - r[3]) * to_ms
                * (speed.factor_at((r[3] + r[5]) / 2) if scaled else 1.0)
                for r in result["requests"] if r[2] == kind]

    def measure(scaled: bool) -> dict:
        start = result["window"][0]
        blocks: dict = {}
        for r in result["requests"]:
            if r[2] in ("hit", "miss"):
                factor = speed.factor_at((r[3] + r[5]) / 2) if scaled else 1.0
                blocks.setdefault(int((r[3] - start) // BLOCK_S), []).append(
                    (r[5] - r[3]) * to_ms * factor)
        return {
            "setup_s": common.median([
                ready * (speed.factor(start, start + ready)
                         if scaled else 1.0)
                for start, ready in result["setup_runs"]]),
            "peak_rss_mb": result["maxrss_mb"],
            **block_stats(blocks.values()),
            "op_cpu_ms": result["daemon_cpu_s"] * 1000.0 / result["sent"]
            * (speed.factor(*result["window"]) if scaled else 1.0),
        }

    e2e = measure(scaled=True)
    hit_ms = latencies("hit", True)
    miss_ms = latencies("miss", True)
    misses = result["misses"]
    computed = [m for m in misses if m["source"] != "hit"]
    counters = result["counters"]
    counts = result["counts"]
    open_hits = result["hits"][:result["open_hits"]]
    layers = {
        "svc_hit_p50_ms": common.median(hit_ms),
        "svc_hit_p99_ms": common.percentile(hit_ms, 99),
        "svc_miss_p50_ms": common.median(miss_ms),
        "svc_miss_p90_ms": common.percentile(miss_ms, 90),
        "svc_capacity_rps": result["capacity_rps"],
        "service.queue_wait_ms_p50": common.median(
            [m["queued_s"] * to_ms for m in computed]),
        "service.queue_wait_ms_p99": common.percentile(
            [m["queued_s"] * to_ms for m in computed], 99),
        "service.run_ms_p50": common.median(
            [m["run_s"] * to_ms for m in computed]),
        "service.lookup_ms_p50": common.median(
            [h["lookup_s"] * to_ms for h in open_hits]),
        "service.queue_depth_max": result["queue_depth_max"],
        "service.hits": counters["hits"],
        "service.coalesced": counters["coalesced"],
        "service.coalesced_ratio": (
            counts["dup_coalesced"] / counts["dup_admissions"]
            if counts["dup_admissions"] else 0.0),
        "service.computed": counters["computed"],
        "service.retries": counters["retries"],
        "service.timeouts": counters["timeouts"],
        "wire.frame_bytes": common.median(
            [r[6] for r in result["requests"] if r[2] == "hit"]),
        "loadgen.late_ms_p99": common.percentile(
            [late * to_ms for late in result["late"]], 99),
        "loadgen.sent": result["sent"],
    }
    layers.update(ladder_metrics(
        [(m["run_s"] * to_ms, m["provenance"]) for m in computed
         if m["verb"] == "worst_case"]))
    if args.trace:
        daemon_spans = result["daemon_spans"]
        layers.update(layer_metrics([daemon_spans], result["window"]))
        layers.update(_overhead([daemon_spans], [result["span_cost_s"]]))
        layers.update(_wire(result, daemon_spans))
    attempted = len(result["requests"]) + len(result["hits"]) \
        - result["open_hits"] + counts["dup_admissions"]
    return {
        "measured": e2e, "raw": measure(scaled=False), "layers": layers,
        "attempted": attempted,
        "failed": len(result["errors"]), "errors": result["errors"],
        "backend": result["backend"],
        "detail": {"populate_s": result["populate_s"],
                   "setup_runs_s": [r for _s, r in result["setup_runs"]],
                   "speed_factor": speed.factor(*result["window"]),
                   "hits": len(hit_ms), "misses": len(miss_ms),
                   "dup_admissions": counts["dup_admissions"],
                   "counters": counters},
    }


def _wire(result, daemon_spans) -> dict:
    """Client latency minus the daemon's own time, per request."""
    server = {(s[6]["port"], s[6]["seq"]): s[5] - s[4]
              for s in daemon_spans if s[3] == "server.request"}
    overhead = [
        ((r[5] - r[4]) - server[(r[0], r[1])]) * 1000.0
        for r in result["requests"] if (r[0], r[1]) in server
    ]
    return {"wire.overhead_ms_p50": common.median(overhead),
            "wire.overhead_ms_p99": common.percentile(overhead, 99)}


def _overhead(span_lists, costs) -> dict:
    """Estimated share of traced time the wrappers themselves took."""
    spent = sum(len(s) * cost for s, cost in zip(span_lists, costs))
    root = sum(spans.summarize(s)["root_s"] for s in span_lists)
    return {"trace.overhead_est_ratio": spent / root if root else 0.0,
            "trace.spans": sum(len(s) for s in span_lists)}


def _load_spans(report) -> list:
    path = report["spans_file"]
    try:
        return spans.load(path)
    finally:
        os.unlink(path)


WORKLOADS = {
    "campaign-cold": campaign_cold,
    "budgeted-worst-case": budgeted_worst_case,
    "service-zipf": service_zipf,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/repro", "results", "campaigns/golden.json")
               if not (common.ROOT / p).exists()]
    if missing:
        print(f"perfbench: checkout lacks {', '.join(missing)}; run from the "
              f"root of a repository checkout", file=sys.stderr)
        return 2
    common.use_source_tree()
    common.OUT.mkdir(parents=True, exist_ok=True)

    speed = Speed(common.OUT / f"speed-{os.getpid()}.json")
    try:
        outcome = WORKLOADS[args.workload](args, speed)
    finally:
        if speed.proc.poll() is None:
            speed.stop()
        os.unlink(speed.path)
    measured = outcome["measured"]
    e2e = {name: measured[name] for name in E2E}
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update({k: v for k, v in measured.items() if k in NAMED})
    layers.update(outcome["layers"])
    attempted = max(1, int(outcome["attempted"]))
    failed = int(outcome["failed"])
    layers["failed_ratio"] = failed / attempted
    if args.trace:
        layers.update({f"traced.{k}": v for k, v in e2e.items()})

    info = common.provenance(outcome.get("backend") or _backend())
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": info, "e2e": e2e, "raw": outcome["raw"],
              "layers": layers,
              "attempted": attempted, "failed": failed,
              "errors": outcome["errors"], **outcome["detail"]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(common.OUT / name, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"{'metric':32s} {'value':>14s} {'unscaled':>14s}")
    for metric, unit in E2E.items():
        print(f"{metric:32s} {e2e[metric]:14.4f} "
              f"{outcome['raw'][metric]:14.4f} {unit}")
    for metric, unit in NAMED.items():
        print(f"{metric:32s} {layers[metric]:14.4f} {unit}")
    for error in outcome["errors"][:20]:
        print(f"WRONG: {error}")

    if args.trace:
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E.items()}
    correct = failed == 0 and not outcome["errors"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _backend() -> str:
    from repro.api import Session

    with Session() as session:
        return session.backend_name


if __name__ == "__main__":
    sys.exit(main())
