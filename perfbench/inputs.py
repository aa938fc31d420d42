"""Seeded inputs of every workload, and the pinned reference results.

Every generator here is a pure function of ``seed``: the same seed
gives the same specs.  The seed only picks among alternatives of equal
cost (a slot length, a duty cycle nudged by under one percent, a grid
seed) and the order of the work, so the work per run stays the same
from seed to seed while the numbers the program must produce change.

``pins.json`` holds the results the reference commit produced for every
alternative; ``pin.py`` regenerates it.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS_PATH = HERE / "pins.json"

#: How many equal-cost alternatives each campaign lattice slot has.
ALTERNATIVES = 4
#: Slot lengths (us) the zoo slots choose from.
SLOT_LENGTHS = (1000, 1010, 1020, 1030)
#: Relative duty-cycle nudges the synthesized slots choose from.
ETA_NUDGES = (1.0, 0.996, 1.004, 1.008)

DISCO_PRIMES = ((3, 5), (3, 7), (5, 7), (5, 11), (7, 11))
UCONNECT_PRIMES = (3, 5, 7, 11)
SEARCHLIGHT_PERIODS = (4, 6, 8, 10, 12)
SLOTLESS_ETAS = (0.02, 0.05, 0.08, 0.1, 0.15)
ASYMMETRIC_ETAS = ((0.2, 0.05), (0.1, 0.05), (0.2, 0.1), (0.3, 0.05))
SYMMETRIC_ETAS = (0.02, 0.04, 0.05, 0.08, 0.1, 0.15, 0.2)
GRID = {"factory": "dense_network",
        "axes": {"n_devices": [3, 4], "eta": [0.02, 0.03]}}


def digest(payload) -> str:
    """sha256 of a payload's canonical JSON (the form the store keeps)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _eta(base: float, alternative: int) -> float:
    return round(base * ETA_NUDGES[alternative], 6)


def _zoo(protocol: str, alternative: int, **params) -> dict:
    params = dict(params, slot_length=SLOT_LENGTHS[alternative], omega=32)
    return {"kind": "zoo", "protocol": protocol, "params": params}


def lattice_slot_runs(alternative: int) -> list[dict]:
    """The synthesized campaign rows, one per slot, for one alternative.

    Labels carry the alternative so pins can address every one."""
    a = alternative
    runs = []
    for p1, p2 in DISCO_PRIMES:
        runs.append(("wc", f"disco-{p1}x{p2}",
                     {"pair": _zoo("Disco", a, prime1=p1, prime2=p2)}))
    for prime in UCONNECT_PRIMES:
        runs.append(("wc", f"uconnect-{prime}",
                     {"pair": _zoo("UConnect", a, prime=prime)}))
    for period in SEARCHLIGHT_PERIODS:
        runs.append(("wc", f"searchlight-{period}",
                     {"pair": _zoo("Searchlight", a, period_slots=period)}))
    for eta in SLOTLESS_ETAS:
        runs.append(("wc", f"optimal-slotless-{eta}", {"pair": {
            "kind": "zoo", "protocol": "OptimalSlotless",
            "params": {"eta": _eta(eta, a)}}}))
    for eta_e, eta_f in ASYMMETRIC_ETAS:
        runs.append(("wc", f"asymmetric-{eta_e}-{eta_f}", {"pair": {
            "kind": "asymmetric", "eta_e": eta_e, "eta_f": _eta(eta_f, a)}}))
    for eta in SYMMETRIC_ETAS:
        for kind in ("symmetric", "symmetric-split"):
            runs.append(("sweep", f"{kind}-{eta}", {
                "pair": {"kind": kind, "eta": _eta(eta, a)},
                "sampling": "critical"}))
    runs.append(("grid", "dense-network", {"grid": GRID, "seed": a}))
    return [
        {"verb": "worst_case" if kind == "wc" else kind,
         "label": f"{kind}:{name}#{a}", "spec": spec}
        for kind, name, spec in runs
    ]


def golden_runs() -> list[dict]:
    with open(ROOT / "campaigns" / "golden.json", encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def campaign_lattice(seed: int, rep: int = 0, smoke: bool = False) -> dict:
    """The campaign-cold lattice of a run's ``rep``-th campaign: golden
    runs plus one seeded alternative of every synthesized slot, in seeded
    order.  Each campaign of a run draws anew, so a run's per-row
    latencies average over the alternatives."""
    rng = random.Random(f"campaign-cold:{seed}:{rep}")
    slots = list(zip(*(lattice_slot_runs(a) for a in range(ALTERNATIVES))))
    runs = [rng.choice(alternatives) for alternatives in slots]
    if smoke:
        runs = [run for run in runs if run["verb"] == "sweep"][:4]
    runs = golden_runs() + runs
    rng.shuffle(runs)
    return {"name": f"perfbench-cold-{seed}", "runs": runs}


def bound_ratio(run: dict, payload: dict):
    """(measured / paper bound, row) for a synthesized symmetric or
    asymmetric row; None for other rows.

    Symmetric rows compare the one-way worst case with Thm 5.5 (as the
    one-way validation does); asymmetric rows compare the two-way worst
    case with Thm 5.7, which bounds mutual discovery."""
    from repro.core.bounds import asymmetric_bound, symmetric_bound

    pair = run["spec"].get("pair") or {}
    report = payload.get("analytic", payload)
    kind = pair.get("kind")
    if pair.get("protocol") == "OptimalSlotless":
        kind, pair = "symmetric", pair["params"]
    if kind in ("symmetric", "symmetric-split"):
        bound = symmetric_bound(32, pair["eta"])
        measured = report["worst_one_way"]
    elif kind == "asymmetric":
        bound = asymmetric_bound(32, pair["eta_e"], pair["eta_f"])
        measured = report["worst_two_way"]
    else:
        return None
    return measured / bound, {"label": run["label"], "measured": measured,
                              "bound": bound}


# ----------------------------------------------------------------------
# budgeted-worst-case
# ----------------------------------------------------------------------
#: Heavy families of the interactive query path.
WC_FAMILIES = {
    "disco-7x13": _zoo("Disco", 0, prime1=7, prime2=13),
    "disco-31x37": _zoo("Disco", 0, prime1=31, prime2=37),
    "disco-101x103": _zoo("Disco", 0, prime1=101, prime2=103),
    "uconnect-31": _zoo("UConnect", 0, prime=31),
    "searchlight-40": _zoo("Searchlight", 0, period_slots=40),
    "optimal-slotless-0.01": {"kind": "zoo", "protocol": "OptimalSlotless",
                              "params": {"eta": 0.01}},
    "symmetric-0.005": {"kind": "symmetric", "eta": 0.005},
    "asymmetric-0.2-0.02": {"kind": "asymmetric", "eta_e": 0.2,
                            "eta_f": 0.02},
}
#: Queries per family in one round.  Two of the ten are
#: optimal-slotless and two disco-101x103, so the median and the 90th
#: percentile fall in the middle of one family's samples instead of on
#: the edge between two families.
WC_ROUND = {
    "disco-7x13": 1, "disco-31x37": 1, "disco-101x103": 2,
    "uconnect-31": 1, "searchlight-40": 1, "optimal-slotless-0.01": 2,
    "symmetric-0.005": 1, "asymmetric-0.2-0.02": 1,
}
WC_BUDGET_MS = 100.0
#: Cheap families for the smoke size.
WC_SMOKE = ("disco-7x13", "uconnect-31", "asymmetric-0.2-0.02")


def wc_query(family: str, fidelity: str) -> dict:
    return {"pair": WC_FAMILIES[family], "fidelity": fidelity,
            "budget_ms": WC_BUDGET_MS}


def wc_round(rng: random.Random, smoke: bool = False) -> list[tuple]:
    """One round of (family, spec) queries in seeded order, each
    ``bounded`` or ``auto`` by seed (the two mean the same with a
    budget)."""
    families = [
        family for family, count in WC_ROUND.items() for _ in range(count)
        if not smoke or family in WC_SMOKE
    ]
    rng.shuffle(families)
    return [(f, wc_query(f, rng.choice(("bounded", "auto"))))
            for f in families]


# ----------------------------------------------------------------------
# service-zipf
# ----------------------------------------------------------------------
HOT_SET = 320          # > the store's 128-entry memory LRU
ZIPF_S = 1.0
#: Budget of the service's budgeted misses: half the interactive one,
#: so the dense tier's compute (the planner fills the budget) holds the
#: daemon's interpreter lock for less of the hits' time.
MISS_BUDGET_MS = 50.0


def hot_specs(seed: int, size: int) -> list[dict]:
    """Distinct cheap sweep specs for the hot set, in seeded Zipf rank
    order (rank 0 is the hottest)."""
    rng = random.Random(f"hot:{seed}")
    kinds = ("symmetric", "symmetric-split")
    picks = rng.sample(range(2000), size)
    specs = []
    for i, pick in enumerate(picks):
        eta = round(0.05 + 0.00005 * pick, 6)
        specs.append({"pair": {"kind": kinds[i % 2], "eta": eta},
                      "samples": 256})
    return specs


def miss_specs(seed: int):
    """A function ``kind -> (verb, spec)`` yielding cold specs, unique
    within a run and of near-equal cost within a kind: cheap sweeps
    (``sweep``), budgeted worst cases (``wc``), and slower sweeps that
    two connections submit at once (``dup``)."""
    rng = random.Random(f"miss:{seed}")
    used = set()
    slots = list(range(1000, 1400))
    rng.shuffle(slots)
    turn = [0]

    def fresh(lo, hi):
        while True:
            eta = round(rng.uniform(lo, hi), 6)
            if eta not in used:
                used.add(eta)
                return eta

    def generate(kind):
        if kind == "sweep":
            return "sweep", {"pair": {"kind": "symmetric",
                                      "eta": fresh(0.15, 0.16)},
                             "samples": 512}
        if kind == "wc":
            # In turn a pair whose exact tier fits the budget and one
            # the ladder must answer from its dense tier.
            turn[0] += 1
            if turn[0] % 2:
                pair = {"kind": "symmetric", "eta": fresh(0.15, 0.16)}
            else:
                pair = _zoo("Disco", 0, prime1=7, prime2=13)
                pair["params"]["slot_length"] = slots.pop()
            return "worst_case", {"pair": pair, "fidelity": "auto",
                                  "budget_ms": MISS_BUDGET_MS}
        return "sweep", {"pair": {"kind": "symmetric",
                                  "eta": fresh(0.09, 0.091)},
                         "sampling": "critical"}

    return generate


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)
