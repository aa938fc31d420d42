"""Child processes of the benchmark: one cold campaign, or the budgeted
worst-case query loop.  Each runs in a fresh interpreter, so every
campaign is cold and every set-up pays its own imports, and prints one
JSON report as its last stdout line.

    python3 perfbench/workers.py campaign --seed 1 --work DIR [--trace 1]
    python3 perfbench/workers.py wc --seed 1 --seconds 20 [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import time

START = time.perf_counter()

import common  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


def _tracer(args):
    if not args.trace:
        return None
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    tracer.enabled = False
    return tracer


def _finish(report: dict, tracer, args) -> int:
    report["maxrss_mb"] = common.maxrss_mb()
    if tracer is not None:
        tracer.enabled = False
        report["span_cost_s"] = spans.calibrate()
        path = common.OUT / f"spans-{args.command}-{args.seed}-{args.tag}.json"
        tracer.dump(path)
        report["spans_file"] = str(path)
    print(json.dumps(report))
    return 0


# ----------------------------------------------------------------------
def campaign(args) -> int:
    tracer = _tracer(args)
    from repro.api import RunSpec
    from repro.campaign import Campaign, CampaignRunner, regenerate_golden_csvs
    from repro.store import ResultStore

    lattice = inputs.campaign_lattice(args.seed, args.rep, smoke=args.smoke)
    work = common.OUT / args.work
    shutil.rmtree(work, ignore_errors=True)
    store = ResultStore(work / "store")
    runner = CampaignRunner(
        Campaign.from_dict(lattice), store,
        manifest_path=work / "manifest.json",
    )
    setup_s = time.perf_counter() - START

    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    manifest = runner.run()
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False

    records = manifest["entries"]
    entry_ms = [r["seconds"] * 1000.0 for r in records if "seconds" in r]
    errors = [f"{r.get('label')}: {r.get('error')}" for r in records
              if r.get("status") != "done"]

    # Correctness (untimed): golden CSVs byte-identical to results/,
    # every lattice row equal to its pinned reference.
    pins = inputs.load_pins()["lattice"]
    wrong_rows = 0
    for path in regenerate_golden_csvs(store, work / "csv"):
        if path.read_bytes() != (common.ROOT / "results" / path.name).read_bytes():
            wrong_rows += 1
            errors.append(f"golden CSV {path.name} differs from results/")
    bound_rows = []
    for run in lattice["runs"]:
        result = store.get(ResultStore.fingerprint(
            run["verb"], RunSpec.from_dict(run["spec"])))
        payload = json.loads(json.dumps(result.payload)) if result else None
        pin = pins.get(run["label"])
        if pin is None or payload is None or inputs.digest(payload) != pin["digest"]:
            wrong_rows += 1
            errors.append(f"row {run['label']} differs from its pin")
            continue
        ratio = inputs.bound_ratio(run, payload)
        if ratio is not None:
            bound_rows.append(dict(ratio[1], ratio=ratio[0]))
    shutil.rmtree(work, ignore_errors=True)
    return _finish({
        "start": START,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "entries": len(records),
        "executed": manifest["executed"],
        "skipped": sum(1 for r in records if r.get("status") == "skipped"),
        "entry_ms": entry_ms,
        "failed": len(records) - len(entry_ms) + wrong_rows,
        "errors": errors,
        "bound_rows": bound_rows,
        "t0": t0,
    }, tracer, args)


# ----------------------------------------------------------------------
def worst_case(args) -> int:
    tracer = _tracer(args)
    from repro.api import Session

    rng = random.Random(f"budgeted-worst-case:{args.seed}")
    session = Session()
    # Set-up: imports, session, and one cold query per family, so the
    # timed loop sees warm caches as a long-lived caller does.
    for _family, spec in inputs.wc_round(random.Random(0), args.smoke):
        session.worst_case(spec)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        session.close()
        return _finish({"start": START, "setup_s": setup_s}, None, args)

    exact = inputs.load_pins()["wc_exact"]
    queries = []
    errors = []
    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    deadline = t0 + args.seconds
    while not queries or time.perf_counter() < deadline:
        for family, spec in inputs.wc_round(rng, args.smoke):
            start = time.perf_counter()
            try:
                result = session.worst_case(spec)
            except Exception as exc:  # counted, reported, run continues
                errors.append(f"{family}: {type(exc).__name__}: {exc}")
                continue
            ms = (time.perf_counter() - start) * 1000.0
            provenance = result.payload["provenance"]
            queries.append({"family": family, "ms": ms,
                            "interval": provenance["bound_interval"],
                            "tiers": provenance["tiers"]})
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    session.close()

    # Correctness: every interval must contain the pinned exact answer.
    raised = len(errors)
    wrong = 0
    for query in queries:
        lo, hi = query["interval"]
        truth = exact[query["family"]]
        if not lo <= truth <= hi:
            wrong += 1
            errors.append(
                f"{query['family']}: bound_interval [{lo}, {hi}] excludes "
                f"the exact worst case {truth}"
            )
    return _finish({
        "start": START,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "queries": queries,
        "attempted": len(queries) + raised,
        "failed": raised + wrong,
        "errors": sorted(set(errors)),
        "t0": t0,
    }, tracer, args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("command", choices=("campaign", "wc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", default="work")
    parser.add_argument("--tag", default="0")
    args = parser.parse_args(argv)
    common.use_source_tree()
    common.OUT.mkdir(parents=True, exist_ok=True)
    if args.command == "campaign":
        return campaign(args)
    return worst_case(args)


if __name__ == "__main__":
    sys.exit(main())
