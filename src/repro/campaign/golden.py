"""The golden-result CSVs as a checked-in campaign definition.

``campaigns/golden.json`` (kept equal to :func:`build_golden_campaign`
by ``tests/test_campaign_golden.py``) describes every offset sweep
behind the pinned validation/ablation CSVs -- VAL-UNI, VAL-PROT and
ABL-SLOT-empirical -- as declarative RunSpecs.  Running it through a
:class:`~repro.campaign.CampaignRunner` populates a result store;
:func:`regenerate_golden_csvs` then rebuilds the four CSVs (the
ABL-SLOT-analytic table is closed-form and needs no sweeps) from store
payloads plus recomputed closed-form columns, **byte-identically** to
the files under ``results/``:

* the sweeps use the benchmark recipes, which live here and which the
  benchmarks import (same offsets, horizons and reception model), and
  the store round-trips payload numbers through JSON losslessly (ints
  stay ints, floats repr-round-trip);
* rows go through the same :func:`repro.analysis.write_csv`.

A second run of the same campaign against a warm store executes zero
sweeps -- every fingerprint hits -- which is the regression gate
``benchmarks/bench_parallel_speedup.py`` records.
"""

from __future__ import annotations

from pathlib import Path

from .campaign import Campaign

__all__ = [
    "build_golden_campaign",
    "golden_rows",
    "regenerate_golden_csvs",
    "GOLDEN_CAMPAIGN_PATH",
    "slot_analytic_rows",
    "zoo_instance",
    "zoo_offsets",
]

#: The checked-in serialized form of :func:`build_golden_campaign`.
GOLDEN_CAMPAIGN_PATH = (
    Path(__file__).resolve().parents[3] / "campaigns" / "golden.json"
)

OMEGA = 32
SLOT = 2_000

# The table recipes below are the single copy: the benchmarks behind
# each table (bench_validation_unidirectional, bench_validation_protocols,
# bench_ablation_slot_length) import them from here.

#: (window, k, stride) budgets of the VAL-UNI table.
UNI_CONFIGS = [
    (320, 10, 11),
    (100, 7, 8),
    (64, 5, 7),
    (500, 4, 9),
    (64, 16, 33),
    (200, 20, 21),
]

#: (display name, zoo class, constructor params) of the VAL-PROT table.
ZOO_CONFIGS = [
    ("Disco", "Disco", {"prime1": 5, "prime2": 7}),
    ("U-Connect", "UConnect", {"prime": 7}),
    ("Searchlight-S", "Searchlight", {"period_slots": 8}),
    ("Diffcodes", "Diffcodes", {"q": 3}),
]

#: Slot lengths of the ABL-SLOT empirical half (I = 3, 5, 10, 40 omega).
SIM_SLOTS = [96, 160, 320, 1_280]

#: I/omega ratios of the analytic half (no sweeps -- closed form).
RATIOS = [2, 3, 4, 8, 16, 64, 256]


def zoo_instance(class_name: str, params: dict):
    """One VAL-PROT protocol at the table's slot length and omega."""
    from .. import protocols as zoo

    return getattr(zoo, class_name)(**params, slot_length=SLOT, omega=OMEGA)


def zoo_offsets(instance, n_offsets: int, slot_filter: bool) -> list[int]:
    """The benchmark offset grids: uniform over one advertiser period,
    optionally excluding the slot-aligned deadlock measure."""
    from ..protocols import Role

    period = int(instance.device(Role.E).beacons.period)
    step = max(1, period // n_offsets)
    offsets = range(0, period, step)
    if not slot_filter:
        return list(offsets)
    return [
        off for off in offsets if 2 * OMEGA <= off % SLOT <= SLOT - 2 * OMEGA
    ]


def slot_analytic_rows() -> list[list]:
    """The closed-form ABL-SLOT table: success fraction and latency
    penalty per I/omega ratio."""
    from ..core.slotted_bounds import slot_length_analysis

    return [
        [
            r,
            slot_length_analysis(float(r)).overlap_success_fraction,
            slot_length_analysis(float(r)).latency_penalty,
        ]
        for r in RATIOS
    ]


def build_golden_campaign() -> Campaign:
    """The golden campaign, built from the benchmark recipes."""
    from .. import protocols as zoo
    from ..core.optimal import synthesize_unidirectional

    runs = []
    for window, k, stride in UNI_CONFIGS:
        design = synthesize_unidirectional(OMEGA, window, k, stride)
        runs.append({
            "verb": "sweep",
            "label": f"val-uni:d={window},k={k},n={stride}",
            "spec": {
                "pair": {
                    "kind": "unidirectional",
                    "omega": OMEGA,
                    "window": window,
                    "k": k,
                    "stride": stride,
                },
                "sampling": "critical",
                "omega": OMEGA,
                "horizon": design.worst_case_latency * 2 + 1,
            },
        })
    for display, class_name, params in ZOO_CONFIGS:
        instance = zoo_instance(class_name, params)
        runs.append({
            "verb": "sweep",
            "label": f"val-prot:{display}",
            "spec": {
                "pair": {
                    "kind": "zoo",
                    "protocol": class_name,
                    "params": dict(params, slot_length=SLOT, omega=OMEGA),
                },
                "offsets": zoo_offsets(instance, 256, slot_filter=True),
                "horizon": int(instance.predicted_worst_case_latency()) * 3,
            },
        })
    for slot in SIM_SLOTS:
        instance = zoo.Searchlight(
            period_slots=8, slot_length=slot, omega=OMEGA
        )
        runs.append({
            "verb": "sweep",
            "label": f"abl-slot:{slot}",
            "spec": {
                "pair": {
                    "kind": "zoo",
                    "protocol": "Searchlight",
                    "params": {
                        "period_slots": 8,
                        "slot_length": slot,
                        "omega": OMEGA,
                    },
                },
                "offsets": zoo_offsets(instance, 400, slot_filter=False),
                "horizon": int(instance.predicted_worst_case_latency() * 3),
            },
        })
    return Campaign(
        name="golden",
        description=(
            "Every offset sweep behind the pinned validation/ablation "
            "CSVs (val-uni, val-prot, abl-slot-empirical), as "
            "store-addressable RunSpecs."
        ),
        runs=runs,
    )


# ----------------------------------------------------------------------
# Store-fed regeneration of the pinned CSVs
# ----------------------------------------------------------------------


def golden_rows(store, campaign: Campaign | None = None) -> dict:
    """Rebuild the four golden tables from a populated store.

    Returns ``{csv stem: (headers, rows)}`` with sweep-derived columns
    read from store payloads through
    :func:`~repro.campaign.tables.stored_rows` and closed-form columns
    recomputed -- the exact row recipes of the three benchmarks (the
    val-prot table is :func:`~repro.campaign.tables.val_prot_rows`).
    Raises ``KeyError`` naming the first missing entry.
    """
    from ..core.bounds import unidirectional_bound
    from ..core.optimal import synthesize_unidirectional
    from .tables import stored_rows, val_prot_rows

    campaign = campaign or build_golden_campaign()

    uni_rows = []
    for (window, k, stride), (worst_one_way, failures, offsets) in zip(
        UNI_CONFIGS,
        stored_rows(
            store, campaign, "val-uni",
            ("worst_one_way", "failures", "offsets_evaluated"),
        ),
    ):
        design = synthesize_unidirectional(OMEGA, window, k, stride)
        bound = unidirectional_bound(OMEGA, design.beta, design.gamma)
        measured_full = worst_one_way + design.beacons.period
        uni_rows.append([
            f"d={window},k={k},n={stride}",
            design.beta,
            design.gamma,
            bound / 1e6,
            measured_full / 1e6,
            failures,
            offsets,
        ])

    empirical_rows = [
        [slot, slot / OMEGA, failures / offsets]
        for slot, (failures, offsets) in zip(
            SIM_SLOTS,
            stored_rows(
                store, campaign, "abl-slot",
                ("failures", "offsets_evaluated"),
            ),
        )
    ]

    return {
        "val-uni": (
            [
                "design", "beta", "gamma", "bound [s]", "measured worst [s]",
                "failures", "offsets",
            ],
            uni_rows,
        ),
        "val-prot": val_prot_rows(store, campaign),
        "abl-slot-analytic": (
            ["I/omega", "success fraction", "latency penalty"],
            slot_analytic_rows(),
        ),
        "abl-slot-empirical": (
            ["slot [us]", "I/omega", "failure fraction"],
            empirical_rows,
        ),
    }


def regenerate_golden_csvs(store, results_dir, campaign: Campaign | None = None) -> list[Path]:
    """Write the four golden CSVs under ``results_dir`` from a populated
    store; returns the written paths.  With the store fed by the golden
    campaign these files are byte-identical to the pinned ones."""
    from ..analysis import write_csv

    results_dir = Path(results_dir)
    written = []
    for stem, (headers, rows) in golden_rows(store, campaign).items():
        written.append(write_csv(results_dir / f"{stem}.csv", headers, rows))
    return written
