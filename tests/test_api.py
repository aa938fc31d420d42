"""Unit tests of the declarative config layer (:mod:`repro.api.spec`)
and the result provenance layer (:mod:`repro.api.result`).

Every call goes through :class:`repro.api.Session` or the
spec/profile/result classes directly.
"""

import dataclasses
import json

import pytest

from repro.api import (
    build_grid,
    build_pair,
    build_scenario,
    RunResult,
    RunSpec,
    RuntimeProfile,
    SpecError,
)
from repro.backends import _np, BackendUnavailable, have_numpy
from repro.core.sequences import NDProtocol
from repro.workloads import dense_network, Scenario


class TestRunSpecSerialization:
    def test_roundtrip_through_dict_and_json(self):
        spec = RunSpec(
            pair={"kind": "symmetric", "eta": 0.02, "omega": 16},
            sampling="critical",
            samples=128,
            horizon_multiple=2,
            model="containment",
            turnaround=5,
            seed=7,
            omega=16,
            des_spot_checks=4,
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_grid_spec_roundtrips(self):
        spec = RunSpec(
            grid={
                "factory": "dense_network",
                "axes": {"n_devices": [3, 5], "eta": [0.02, 0.05]},
            },
            seed=3,
        )
        clone = RunSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.grid["axes"]["n_devices"] == [3, 5]

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown RunSpec field"):
            RunSpec.from_dict({"pair": None, "warp_factor": 9})

    def test_unknown_field_error_names_known_fields(self):
        with pytest.raises(SpecError, match="samples"):
            RunSpec.from_dict({"sampels": 12})

    def test_invalid_model_and_sampling_rejected(self):
        with pytest.raises(SpecError, match="model"):
            RunSpec(model="psychic")
        with pytest.raises(SpecError, match="sampling"):
            RunSpec(sampling="vibes")
        with pytest.raises(SpecError, match="samples"):
            RunSpec(samples=0)

    def test_live_objects_refuse_to_serialize_but_describe(self):
        from repro.core.sequences import ReceptionSchedule

        proto = NDProtocol(
            beacons=None,
            reception=ReceptionSchedule.single_window(25, 100),
            name="stub",
        )
        spec = RunSpec(pair=(proto, proto))
        with pytest.raises(SpecError, match="live object"):
            spec.to_dict()
        snapshot = spec.describe()
        assert "NDProtocol" in snapshot["pair"] or "stub" in snapshot["pair"]
        assert snapshot["model"] == "point"


class TestRuntimeProfileSerialization:
    def test_roundtrip(self):
        profile = RuntimeProfile(
            backend="python", jobs=3, mp_context="spawn", store="results/store"
        )
        clone = RuntimeProfile.from_json(profile.to_json())
        assert clone == profile

    def test_profile_has_exactly_four_fields(self):
        """A profile says only where work runs."""
        assert [f.name for f in dataclasses.fields(RuntimeProfile)] == [
            "backend", "jobs", "mp_context", "store",
        ]

    @pytest.mark.parametrize(
        "payload",
        [
            {"backend": "auto", "gpu": True},
            # Removed knobs are unknown fields now, not silently ignored.
            {"schedule": "chunk"},
            {"chunks_per_job": 2},
            {"shared_memory": False},
            {"cost_weights": [3.3e-06, 4.8e-06]},
            {"auto_calibrate": True},
            {"cache_limit": 8},
            {"cache_policy": "release"},
        ],
    )
    def test_unknown_field_rejected(self, payload):
        with pytest.raises(SpecError, match="unknown RuntimeProfile field"):
            RuntimeProfile.from_dict(payload)

    def test_validation(self):
        with pytest.raises(SpecError):
            RuntimeProfile(jobs=-1)
        # An unknown start method fails when the profile is built, not
        # at the first pooled sweep -- and also under jobs=1, where no
        # pool would ever have surfaced it.
        for jobs in (1, 2):
            with pytest.raises(SpecError, match="mp_context"):
                RuntimeProfile(jobs=jobs, mp_context="bogus")
        with pytest.raises(SpecError, match="mp_context"):
            RuntimeProfile.from_dict({"mp_context": "bogus"})
        with pytest.raises(SpecError, match="mp_context"):
            RuntimeProfile().replace(mp_context="bogus")
        import multiprocessing

        for method in multiprocessing.get_all_start_methods():
            assert RuntimeProfile(jobs=2, mp_context=method).mp_context == method

    def test_load_toml_and_json(self, tmp_path):
        toml_path = tmp_path / "profile.toml"
        toml_path.write_text('backend = "python"\njobs = 2\n')
        profile = RuntimeProfile.load(toml_path)
        assert profile.backend == "python" and profile.jobs == 2

        json_path = tmp_path / "profile.json"
        json_path.write_text(json.dumps({"backend": "auto", "jobs": 4}))
        profile = RuntimeProfile.load(json_path)
        assert profile.backend == "auto" and profile.jobs == 4

    def test_json_preserves_jobs_none(self, tmp_path):
        """JSON can say ``jobs = None`` (all cores); TOML has no null."""
        path = tmp_path / "profile.json"
        path.write_text(RuntimeProfile(jobs=None).to_json())
        assert RuntimeProfile.load(path).jobs is None

    def test_wrong_typed_field_values_raise_spec_error(self):
        with pytest.raises(SpecError, match="field value"):
            RuntimeProfile(jobs="four")
        # Non-integer worker counts used to construct fine and fail at
        # the first pooled sweep (floats) or run as 1 (True).
        for jobs in (1.5, 2.0, True, False):
            with pytest.raises(SpecError, match="field value"):
                RuntimeProfile(jobs=jobs)
        with pytest.raises(SpecError, match="field value"):
            RuntimeProfile.from_json('{"jobs": 2.0}')
        with pytest.raises(SpecError, match="field value"):
            RunSpec(samples="many")

    @pytest.mark.parametrize("name", ["bogus", "pooled", "native"])
    def test_unknown_backend_name_is_a_config_error(self, name):
        """Only auto/python/numpy are selectable; the retired pooled and
        native names are config errors like any typo."""
        from repro.api import Session

        with Session(RuntimeProfile(backend=name)) as session:
            with pytest.raises(SpecError, match=name):
                session.sweep(RunSpec(pair={"kind": "symmetric", "eta": 0.05},
                                      samples=8))

    def test_session_accepts_profile_path(self, tmp_path):
        from repro.api import Session

        path = tmp_path / "profile.toml"
        path.write_text('backend = "python"\njobs = 2\n')
        with Session(path) as session:
            assert session.profile.jobs == 2
        with pytest.raises(TypeError, match="profile"):
            Session(42)

    def test_load_unknown_field_fails_loudly(self, tmp_path):
        path = tmp_path / "profile.toml"
        path.write_text('bakcend = "python"\n')
        with pytest.raises(SpecError, match="bakcend"):
            RuntimeProfile.load(path)

    def test_default_honours_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "python")
        monkeypatch.setenv("REPRO_JOBS", "2")
        profile = RuntimeProfile.default()
        assert profile.backend == "python"
        assert profile.jobs == 2

    def test_default_loads_profile_file_from_env(self, monkeypatch, tmp_path):
        path = tmp_path / "profile.toml"
        path.write_text('jobs = 3\nstore = "results/store"\n')
        monkeypatch.setenv("REPRO_PROFILE", str(path))
        monkeypatch.setenv("REPRO_BACKEND", "python")
        profile = RuntimeProfile.default()
        assert profile.jobs == 3
        assert profile.store == "results/store"
        assert profile.backend == "python"  # env override on top

    def test_backend_instance_is_runtime_only(self):
        from repro.backends import PythonBackend

        profile = RuntimeProfile(backend=PythonBackend())
        with pytest.raises(SpecError, match="live object"):
            profile.to_dict()
        assert "PythonBackend" in profile.describe()["backend"]


class TestDeclarativeBuilders:
    def test_symmetric_pair_builds(self):
        protocol_e, protocol_f, base = build_pair(
            {"kind": "symmetric", "eta": 0.05, "omega": 32}
        )
        assert protocol_e is protocol_f
        assert base is not None and base > 0

    def test_split_pair_is_one_way(self):
        advertiser, scanner, _base = build_pair(
            {"kind": "symmetric-split", "eta": 0.05, "omega": 32}
        )
        assert advertiser.beacons is not None and advertiser.reception is None
        assert scanner.beacons is None and scanner.reception is not None

    def test_zoo_pair_builds(self):
        protocol_e, protocol_f, base = build_pair(
            {"kind": "zoo", "protocol": "Disco",
             "params": {"prime1": 3, "prime2": 5, "slot_length": 200}}
        )
        assert protocol_e.beacons is not None
        assert base is not None and base > 0

    def test_unknown_pair_kind_and_protocol_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            build_pair({"kind": "wormhole"})
        with pytest.raises(SpecError, match="zoo protocol"):
            build_pair({"kind": "zoo", "protocol": "Nonexistent"})
        with pytest.raises(SpecError, match="unknown pair parameter"):
            build_pair({"kind": "symmetric", "eta": 0.05, "typo": 1})

    def test_scenario_and_grid_builders(self):
        scenario = build_scenario(
            {"factory": "dense_network", "params": {"n_devices": 3, "eta": 0.05}}
        )
        assert isinstance(scenario, Scenario)
        assert len(scenario.protocols) == 3
        grid = build_grid(
            {"factory": "dense_network",
             "axes": {"n_devices": [3, 4], "eta": [0.05]}}
        )
        assert [len(s.protocols) for s in grid] == [3, 4]
        # Instances pass through unchanged.
        ready = dense_network(n_devices=3, eta=0.05)
        assert build_scenario(ready) is ready
        assert build_grid([ready]) == [ready]

    def test_unknown_factory_rejected(self):
        with pytest.raises(SpecError, match="factory"):
            build_scenario({"factory": "mars_rover", "params": {}})
        with pytest.raises(SpecError, match="factory"):
            build_grid({"factory": "mars_rover", "axes": {"n_devices": [2]}})


class TestRunResultSerialization:
    def _result(self):
        return RunResult(
            verb="sweep",
            spec={"pair": {"kind": "symmetric", "eta": 0.05}},
            profile={"backend": "auto", "jobs": 1},
            backend="python",
            timings={"build": 0.1, "run": 0.5, "total": 0.6},
            payload={"worst_one_way": 123, "failures": 0},
            raw=object(),  # live payload must not leak into serialization
        )

    def test_json_roundtrip_drops_raw_only(self):
        result = self._result()
        clone = RunResult.from_json(result.to_json())
        assert clone == result  # raw excluded from equality
        assert clone.raw is None
        assert clone.payload["worst_one_way"] == 123
        assert clone.backend == "python"

    def test_save_into_results_dir(self, tmp_path):
        result = self._result()
        path = result.save(tmp_path / "results")
        assert path.exists()
        clone = RunResult.from_json(path)
        assert clone == result

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown RunResult field"):
            RunResult.from_dict({"verb": "sweep", "mystery": 1})


class TestNoNumpyEnvironment:
    """The profile/backend contract in a NumPy-less environment."""

    def _spec(self):
        return RunSpec(
            pair={"kind": "symmetric", "eta": 0.05}, samples=16,
            horizon_multiple=1,
        )

    def test_numpy_profile_raises_clear_error(self, monkeypatch):
        from repro.api import Session

        monkeypatch.setattr(_np, "np", None)
        with Session(RuntimeProfile(backend="numpy")) as session:
            with pytest.raises(BackendUnavailable, match="fast"):
                session.sweep(self._spec())

    def test_auto_profile_falls_back_to_python(self, monkeypatch):
        from repro.api import Session

        monkeypatch.setattr(_np, "np", None)
        with Session(RuntimeProfile(backend="auto")) as session:
            result = session.sweep(self._spec())
        assert result.backend == "python"
        assert result.payload["offsets"] == 16

    def test_auto_resolves_to_numpy_when_present(self):
        from repro.api import Session

        if not have_numpy():
            pytest.skip("NumPy extra not installed")
        with Session(RuntimeProfile(backend="auto")) as session:
            result = session.sweep(self._spec())
        assert result.backend == "numpy"
