"""The declarative pair-family registry: schema canonicalization and
spec-layer integration (new kinds without touching repro.api.spec)."""

import pytest

from repro.api import RunSpec, SpecError
from repro.api.spec import build_pair
from repro.parallel import protocol_fingerprint
from repro.protocols import (
    build_registered_pair,
    canonical_pair,
    pair_kinds,
    pair_schema,
    PairSchema,
    register_pair_schema,
)
from repro.store import run_fingerprint


class TestRegistry:
    def test_builtin_kinds_registered(self):
        kinds = pair_kinds()
        assert kinds == sorted(kinds)
        for kind in ("symmetric", "symmetric-split", "asymmetric", "zoo",
                     "unidirectional"):
            assert kind in kinds
            assert pair_schema(kind) is not None

    def test_canonical_fills_defaults(self):
        sparse = {"kind": "symmetric", "eta": 0.05}
        assert canonical_pair(sparse) == {
            "kind": "symmetric", "eta": 0.05, "omega": 32, "alpha": 1.0,
        }
        # Input is never mutated.
        assert sparse == {"kind": "symmetric", "eta": 0.05}

    def test_canonical_passthrough_unknown_or_nonmapping(self):
        assert canonical_pair({"kind": "no-such-kind", "x": 1}) == {
            "kind": "no-such-kind", "x": 1,
        }
        assert canonical_pair(None) is None
        assert canonical_pair([1, 2]) == [1, 2]

    def test_zoo_canonicalization_uses_signature(self):
        sparse = {
            "kind": "zoo", "protocol": "Searchlight",
            "params": {"period_slots": 8, "slot_length": 96},
        }
        canonical = canonical_pair(sparse)
        params = canonical["params"]
        assert params["period_slots"] == 8
        assert params["slot_length"] == 96
        # Constructor defaults filled from inspect.signature:
        assert "omega" in params and "alpha" in params and "striped" in params

    def test_unidirectional_builds(self):
        adv, scan, base = build_registered_pair({
            "kind": "unidirectional", "window": 100, "k": 7, "stride": 8,
        })
        assert adv.beacons is not None and adv.reception is None
        assert scan.beacons is None and scan.reception is not None
        assert base > 0

    def test_build_pair_falls_through_to_registry(self):
        adv, scan, base = build_pair({
            "kind": "unidirectional", "window": 64, "k": 5, "stride": 7,
            "omega": 32,
        })
        assert adv.name == "advertiser" and scan.name == "scanner"
        assert base > 0

    @pytest.mark.parametrize("pair", [
        {"kind": "symmetric"},
        {"kind": "symmetric-split", "eta": 0.05},
        {"kind": "asymmetric"},
        {"kind": "unidirectional", "window": 100, "k": 7},
        {"kind": "zoo", "protocol": "Disco",
         "params": {"prime1": 5, "prime2": 7}},
    ], ids=lambda pair: pair["kind"])
    def test_builder_and_canonical_defaults_agree(self, pair):
        # The fingerprint hashes canonical_pair(pair) -- the registry's
        # defaults -- while build_pair fills its own.  If the two drift,
        # one fingerprint addresses two experiments.
        canonical = canonical_pair(pair)
        assert canonical != pair  # defaults were filled in
        *sparse, sparse_base = build_pair(pair)
        *filled, filled_base = build_pair(canonical)
        assert [protocol_fingerprint(p) for p in sparse] == [
            protocol_fingerprint(p) for p in filled
        ]
        assert sparse_base == filled_base

    def test_unknown_kind_lists_registered(self):
        with pytest.raises(SpecError, match="registered kinds"):
            build_pair({"kind": "definitely-not-a-kind"})

    def test_bad_params_become_spec_errors(self):
        with pytest.raises(SpecError, match="unidirectional"):
            build_pair({"kind": "unidirectional", "window": 64, "k": 5,
                        "stride": 7, "typo": 1})


class TestCustomKind:
    @pytest.fixture()
    def custom_kind(self):
        def build(params):
            from repro.core.optimal import synthesize_symmetric

            protocol, design = synthesize_symmetric(
                params.pop("omega", 32), params.pop("eta", 0.01), 1.0
            )
            if params:
                raise ValueError(f"unknown: {sorted(params)}")
            return protocol, protocol, design.worst_case_latency

        schema = PairSchema(
            kind="test-custom",
            build=build,
            defaults={"omega": 32, "eta": 0.01},
            description="test-only kind",
        )
        register_pair_schema(schema)
        yield schema
        from repro.protocols import registry

        registry._SCHEMAS.pop("test-custom", None)

    def test_registered_kind_resolves_via_spec_layer(self, custom_kind):
        assert "test-custom" in pair_kinds()
        e, f, base = build_pair({"kind": "test-custom", "eta": 0.02})
        assert e is f and base > 0

    def test_fingerprints_derive_from_schema_not_import_path(self, custom_kind):
        # Omitted defaults and explicit defaults hash identically --
        # identity is the canonical schema form.
        sparse = RunSpec(pair={"kind": "test-custom"})
        explicit = RunSpec(pair={"kind": "test-custom", "omega": 32,
                                 "eta": 0.01})
        assert run_fingerprint("sweep", sparse) == run_fingerprint(
            "sweep", explicit
        )
        other = RunSpec(pair={"kind": "test-custom", "eta": 0.02})
        assert run_fingerprint("sweep", sparse) != run_fingerprint(
            "sweep", other
        )
