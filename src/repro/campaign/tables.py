"""Store-fed benchmark tables: campaign definitions rendered through
:func:`repro.analysis.rows_from_store`.

:func:`stored_rows` is the one store reader behind every pinned table
(the golden ones of :func:`~repro.campaign.golden.golden_rows`
included): dotted payload columns of a campaign's entries through the
generic :func:`~repro.analysis.rows_from_store` path, no bespoke
payload plumbing.  The ``val-prot`` table (the protocol-zoo validation
of ``benchmarks/bench_validation_protocols.py``) also has its own
checked-in campaign (``campaigns/val-prot.json``); its closed-form
columns (duty cycle, claimed worst case, utilization-bound gap) are
recomputed.

The four runs are **spec-identical** to the golden campaign's
``val-prot`` entries, so they share fingerprints: a store populated by
either campaign (or by the sweep service) renders this table, and
:func:`regenerate_val_prot_csv` reproduces the pinned
``results/val-prot.csv`` byte-identically.
"""

from __future__ import annotations

from pathlib import Path

from .campaign import Campaign
from .golden import OMEGA, SLOT, zoo_instance, ZOO_CONFIGS, zoo_offsets

__all__ = [
    "build_val_prot_campaign",
    "regenerate_val_prot_csv",
    "VAL_PROT_CAMPAIGN_PATH",
    "val_prot_rows",
]

#: The checked-in serialized form of :func:`build_val_prot_campaign`.
VAL_PROT_CAMPAIGN_PATH = (
    Path(__file__).resolve().parents[3] / "campaigns" / "val-prot.json"
)

#: Sweep-derived columns, as dotted payload paths for
#: :func:`repro.analysis.rows_from_store`.
STORE_COLUMNS = ("worst_one_way", "failures")


def build_val_prot_campaign() -> Campaign:
    """The four protocol-zoo validation sweeps, spec-identical to the
    golden campaign's ``val-prot`` entries (same fingerprints)."""
    runs = []
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
    return Campaign(
        name="val-prot",
        description=(
            "The protocol-zoo validation sweeps behind the pinned "
            "val-prot CSV, as a store-fed table campaign (spec-identical "
            "to the golden campaign's val-prot entries)."
        ),
        runs=runs,
    )


def stored_rows(store, campaign: Campaign, table: str, columns) -> list[list]:
    """``columns`` (dotted payload paths) of every ``campaign`` entry
    labelled ``"<table>:..."``, in expansion order, read through
    :func:`repro.analysis.rows_from_store`.  Raises ``KeyError`` naming
    the first entry missing from the store (run the campaign first)."""
    from ..analysis import rows_from_store

    entries = [
        entry for entry in campaign.expand()
        if entry.label.startswith(f"{table}:")
    ]
    rows = rows_from_store(
        store, [(entry.verb, entry.spec) for entry in entries], columns
    )
    for entry, row in zip(entries, rows):
        if all(value is None for value in row):
            raise KeyError(
                f"store {store.root} is missing campaign entry "
                f"{entry.label!r} (fingerprint "
                f"{store.fingerprint(entry.verb, entry.spec)}); run the "
                f"{campaign.name} campaign first"
            )
    return rows


def val_prot_rows(store, campaign: Campaign | None = None):
    """``(headers, rows)`` of the val-prot table from a populated store.

    Sweep-derived columns come through :func:`stored_rows`
    (``worst_one_way``, ``failures`` as dotted payload paths) from the
    ``val-prot:`` entries of ``campaign`` -- this table's own campaign
    by default, or the golden one; duty cycle, the claimed worst case
    and the utilization-bound gap ratio are closed-form.  Raises
    ``KeyError`` naming the first missing entry.
    """
    from ..analysis import gap_for_protocol
    from ..protocols import Role

    campaign = campaign or build_val_prot_campaign()
    rows = []
    for (display, class_name, params), (worst_one_way, failures) in zip(
        ZOO_CONFIGS, stored_rows(store, campaign, "val-prot", STORE_COLUMNS)
    ):
        instance = zoo_instance(class_name, params)
        claim = instance.predicted_worst_case_latency()
        full_latency = (
            worst_one_way + instance.device(Role.E).beacons.max_gap
        )
        gap = gap_for_protocol(
            instance, omega=OMEGA, measured_latency=full_latency
        )
        rows.append([
            display,
            instance.duty_cycle(),
            claim / 1e3,
            worst_one_way / 1e3,
            failures,
            gap.ratio_constrained,
        ])
    headers = [
        "protocol", "eta", "claimed worst [ms]", "measured worst [ms]",
        "failures", "x util-bound",
    ]
    return headers, rows


def regenerate_val_prot_csv(store, results_dir) -> Path:
    """Write ``val-prot.csv`` under ``results_dir`` from a populated
    store -- byte-identical to the pinned file."""
    from ..analysis import write_csv

    headers, rows = val_prot_rows(store)
    return write_csv(Path(results_dir) / "val-prot.csv", headers, rows)
