"""Tests for the declarative construction API: ProtocolSpec / SweepSpec,
the protocol registry, and spec-driven sweep / shard equivalence."""

import json
import pickle

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.experiments.empirical import EMPIRICAL_PROTOCOLS, paper_protocol_specs
from repro.longitudinal import (
    BiLOLOHA,
    DBitFlipPM,
    LGRR,
    LOLOHA,
    LOSUE,
    LSUE,
    OLOLOHA,
)
from repro.registry import (
    build_protocol,
    dbitflip_bucket_count,
    register_protocol,
    registered_protocols,
)
from repro.simulation import simulate_protocol_sharded
from repro.simulation.sweep import run_sweep
from repro.specs import ProtocolSpec, SweepSpec, load_sweep_spec

#: One concrete, buildable spec per registered protocol name.
CONCRETE_SPECS = {
    "L-GRR": ProtocolSpec(name="L-GRR", k=24, eps_inf=2.0, alpha=0.5),
    "L-SUE": ProtocolSpec(name="L-SUE", k=24, eps_inf=2.0, eps_1=1.0),
    "RAPPOR": ProtocolSpec(name="RAPPOR", k=24, eps_inf=2.0, alpha=0.5),
    "L-OSUE": ProtocolSpec(name="L-OSUE", k=24, eps_inf=2.0, alpha=0.5),
    "L-OUE": ProtocolSpec(name="L-OUE", k=24, eps_inf=2.0, alpha=0.5),
    "L-SOUE": ProtocolSpec(name="L-SOUE", k=24, eps_inf=2.0, alpha=0.5),
    "LOLOHA": ProtocolSpec(name="LOLOHA", k=24, eps_inf=2.0, alpha=0.5, params={"g": 4}),
    "BiLOLOHA": ProtocolSpec(name="BiLOLOHA", k=24, eps_inf=2.0, alpha=0.5),
    "OLOLOHA": ProtocolSpec(
        name="OLOLOHA", k=24, eps_inf=2.0, alpha=0.5, params={"hash_family": "polynomial"}
    ),
    "dBitFlipPM": ProtocolSpec(
        name="dBitFlipPM", k=24, eps_inf=2.0, params={"b": 12, "d": 3}
    ),
}

EXPECTED_TYPES = {
    "L-GRR": LGRR,
    "L-SUE": LSUE,
    "RAPPOR": LSUE,
    "L-OSUE": LOSUE,
    "LOLOHA": LOLOHA,
    "BiLOLOHA": BiLOLOHA,
    "OLOLOHA": OLOLOHA,
    "dBitFlipPM": DBitFlipPM,
}


class TestProtocolSpec:
    def test_every_registered_protocol_has_a_concrete_spec(self):
        assert set(registered_protocols()) == set(CONCRETE_SPECS)

    @pytest.mark.parametrize("name", sorted(CONCRETE_SPECS))
    def test_json_round_trip_every_protocol(self, name):
        spec = CONCRETE_SPECS[name]
        assert ProtocolSpec.from_json(spec.to_json()) == spec
        assert ProtocolSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize("name", sorted(CONCRETE_SPECS))
    def test_build_every_protocol(self, name):
        spec = CONCRETE_SPECS[name]
        protocol = build_protocol(spec)
        assert protocol.k == 24
        if name in EXPECTED_TYPES:
            assert isinstance(protocol, EXPECTED_TYPES[name])

    @pytest.mark.parametrize("name", sorted(CONCRETE_SPECS))
    def test_specs_are_picklable_and_hashable(self, name):
        spec = CONCRETE_SPECS[name]
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))

    def test_build_matches_direct_construction(self):
        spec = ProtocolSpec(name="OLOLOHA", k=24, eps_inf=2.0, alpha=0.5)
        built = build_protocol(spec)
        direct = OLOLOHA(24, 2.0, 1.0)
        assert built.g == direct.g
        assert built.chained_parameters == direct.chained_parameters

    def test_dbitflip_defaults_follow_paper_rule(self):
        small = build_protocol(ProtocolSpec(name="dBitFlipPM", k=100, eps_inf=2.0))
        assert (small.b, small.d) == (100, 1)
        large = build_protocol(
            ProtocolSpec(name="dBitFlipPM", k=1412, eps_inf=2.0, params={"d": "b"})
        )
        assert large.b == dbitflip_bucket_count(1412) == 353
        assert large.d == large.b

    def test_at_fills_grid_fields(self):
        template = ProtocolSpec(name="L-OSUE")
        concrete = template.at(k=16, eps_inf=2.0, alpha=0.5)
        assert concrete.is_concrete
        assert concrete.resolved_eps_1 == pytest.approx(1.0)
        # Overriding eps_1 clears alpha (and vice versa).
        assert concrete.at(eps_1=0.7).alpha is None
        assert concrete.at(eps_1=0.7).resolved_eps_1 == 0.7

    def test_display_name_defaults_to_name(self):
        assert ProtocolSpec(name="L-OSUE").display_name == "L-OSUE"
        assert ProtocolSpec(name="dBitFlipPM", label="1BitFlipPM").display_name == "1BitFlipPM"


class TestSpecValidation:
    def test_unknown_protocol_name_rejected(self):
        with pytest.raises(ParameterError, match="unknown protocol"):
            build_protocol(ProtocolSpec(name="L-IMAGINARY", k=8, eps_inf=1.0, alpha=0.5))

    def test_non_concrete_spec_rejected(self):
        with pytest.raises(ParameterError, match="not concrete"):
            build_protocol(ProtocolSpec(name="L-OSUE", alpha=0.5))

    def test_missing_first_report_budget_rejected(self):
        with pytest.raises(ParameterError, match="alpha.*eps_1|eps_1.*alpha"):
            build_protocol(ProtocolSpec(name="L-OSUE", k=8, eps_inf=1.0))

    def test_alpha_and_eps_1_mutually_exclusive(self):
        with pytest.raises(ParameterError, match="mutually exclusive"):
            ProtocolSpec(name="L-OSUE", alpha=0.5, eps_1=1.0)

    def test_alpha_out_of_range_rejected(self):
        with pytest.raises(ParameterError, match="alpha"):
            ProtocolSpec(name="L-OSUE", alpha=1.5)

    def test_unknown_builder_param_rejected(self):
        with pytest.raises(ParameterError, match="unknown params"):
            build_protocol(
                ProtocolSpec(name="L-GRR", k=8, eps_inf=1.0, alpha=0.5, params={"b": 4})
            )

    def test_non_scalar_param_rejected(self):
        with pytest.raises(ParameterError, match="JSON scalar"):
            ProtocolSpec(name="dBitFlipPM", params={"d": [1, 2]})

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ParameterError, match="unknown protocol spec fields"):
            ProtocolSpec.from_dict({"name": "L-OSUE", "epsilon": 1.0})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ParameterError, match="already registered"):
            register_protocol("L-GRR", lambda spec: None)

    def test_invalid_dbitflip_d_string_rejected(self):
        with pytest.raises(ParameterError, match="'b'"):
            build_protocol(
                ProtocolSpec(name="dBitFlipPM", k=8, eps_inf=1.0, params={"d": "all"})
            )


class TestSweepSpec:
    def _spec(self):
        return SweepSpec(
            protocols=(
                ProtocolSpec(name="L-OSUE"),
                ProtocolSpec(name="dBitFlipPM", label="1BitFlipPM", params={"d": 1}),
            ),
            eps_inf_values=(0.5, 2.0),
            alpha_values=(0.5,),
            datasets=("syn",),
            n_runs=1,
            dataset_scale=0.02,
            seed=7,
            name="demo",
        )

    def test_json_round_trip(self, tmp_path):
        spec = self._spec()
        assert SweepSpec.from_json(spec.to_json()) == spec
        path = spec.save(tmp_path / "grid.json")
        assert load_sweep_spec(path) == spec

    def test_grid_accessors(self):
        spec = self._spec()
        assert list(spec.grid_protocols()) == ["L-OSUE", "1BitFlipPM"]
        assert spec.n_grid_points == 4
        assert spec.experiment_id("syn") == "demo_syn"

    def test_duplicate_display_names_rejected(self):
        with pytest.raises(ParameterError, match="unique"):
            SweepSpec(
                protocols=(
                    ProtocolSpec(name="dBitFlipPM"),
                    ProtocolSpec(name="dBitFlipPM"),
                ),
                eps_inf_values=(1.0,),
                alpha_values=(0.5,),
            )

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="not found"):
            load_sweep_spec(tmp_path / "absent.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParameterError, match="invalid JSON"):
            load_sweep_spec(path)


class TestSpecSweepEquivalence:
    """Spec-driven sweeps are bit-identical serial and parallel, for two
    protocols x two grid points."""

    GRID = dict(eps_inf_values=[1.0, 2.0], alpha_values=[0.5], n_runs=2, rng=123)

    def _specs(self, dataset, **overrides):
        specs = {
            "OLOLOHA": ProtocolSpec(name="OLOLOHA"),
            "RAPPOR": ProtocolSpec(name="L-SUE", label="RAPPOR"),
        }
        return run_sweep(specs, dataset, keep_runs=False, **{**self.GRID, **overrides})

    def test_spec_sweep_bit_identical_serial_vs_two_workers(self, tiny_dataset):
        serial = self._specs(tiny_dataset)
        parallel = self._specs(tiny_dataset, n_workers=2)
        for a, b in zip(serial, parallel):
            assert a.mse_avg == b.mse_avg
            assert a.eps_avg == b.eps_avg
            assert a.run_mses == b.run_mses


class TestShardedSpecSimulation:
    def test_spec_shards_match_protocol_shards(self, tiny_dataset):
        spec = ProtocolSpec(name="L-OSUE", k=tiny_dataset.k, eps_inf=2.0, eps_1=1.0)
        from_protocol = simulate_protocol_sharded(
            build_protocol(spec), tiny_dataset, n_shards=3, rng=5
        )
        from_spec = simulate_protocol_sharded(spec, tiny_dataset, n_shards=3, rng=5)
        assert np.array_equal(from_protocol.estimates, from_spec.estimates)

    @pytest.mark.parametrize("label", EMPIRICAL_PROTOCOLS + ("L-GRR-oneshot",))
    def test_pooled_shards_bit_identical(self, label, tiny_dataset, oneshot_dataset):
        if label == "L-GRR-oneshot":
            spec = ProtocolSpec(name="L-GRR", eps_inf=1.0, alpha=0.5)
            dataset = oneshot_dataset
        else:
            spec = paper_protocol_specs()[label].at(eps_inf=2.0, alpha=0.5)
            dataset = tiny_dataset
        serial = simulate_protocol_sharded(spec, dataset, n_shards=4, rng=9)
        pooled = simulate_protocol_sharded(
            spec, dataset, n_shards=4, rng=9, n_workers=2
        )
        assert np.array_equal(serial.estimates, pooled.estimates)
        assert np.array_equal(
            serial.distinct_memoized_per_user, pooled.distinct_memoized_per_user
        )
        assert serial.mse_avg == pooled.mse_avg
        assert serial.eps_avg == pooled.eps_avg

    def test_distributing_protocol_objects_rejected(self, tiny_dataset):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError, match="ProtocolSpec"):
            simulate_protocol_sharded(
                OLOLOHA(tiny_dataset.k, 2.0, 1.0),
                tiny_dataset,
                n_shards=2,
                rng=0,
                n_workers=2,
            )


class TestSweepSpecFingerprint:
    def _base_spec(self, **overrides):
        kwargs = dict(
            name="fp",
            protocols=(ProtocolSpec(name="L-OSUE"),),
            eps_inf_values=(0.5, 2.0),
            alpha_values=(0.5,),
            datasets=("syn",),
            n_runs=2,
            dataset_scale=0.05,
            seed=11,
        )
        kwargs.update(overrides)
        return SweepSpec(**kwargs)

    def test_fingerprint_is_stable(self):
        assert self._base_spec().fingerprint() == self._base_spec().fingerprint()

    def test_fingerprint_changes_with_result_determining_fields(self):
        base = self._base_spec().fingerprint()
        assert self._base_spec(seed=12).fingerprint() != base
        assert self._base_spec(n_runs=3).fingerprint() != base
        assert self._base_spec(eps_inf_values=(0.5,)).fingerprint() != base
        assert self._base_spec(dataset_scale=0.1).fingerprint() != base

    def test_fingerprint_ignores_non_result_determining_fields(self):
        # Worker count never changes results (bit-identical sweeps), adding
        # a dataset does not change the finished datasets' rows, and the
        # name is already the CSV filename — none may invalidate a resume.
        base = self._base_spec().fingerprint()
        assert self._base_spec(n_workers=8).fingerprint() == base
        assert self._base_spec(datasets=("syn", "adult")).fingerprint() == base
        assert self._base_spec(name="renamed").fingerprint() == base


class TestIngestSpec:
    def _spec(self, **overrides):
        from repro.specs import IngestSpec

        kwargs = dict(
            protocol=ProtocolSpec(name="L-OSUE", k=8, eps_inf=2.0, eps_1=1.0),
            n_rounds=4,
        )
        kwargs.update(overrides)
        return IngestSpec(**kwargs)

    def test_json_round_trip(self, tmp_path):
        from repro.specs import IngestSpec, load_ingest_spec

        spec = self._spec(
            name="edge",
            port=8471,
            quorum=100,
            auth_key_env="INGEST_KEY",
        )
        path = spec.save(tmp_path / "ingest.json")
        restored = load_ingest_spec(path)
        assert restored == spec
        assert IngestSpec.from_json(spec.to_json()) == spec

    def test_defaults_round_trip_without_optional_noise(self):
        spec = self._spec()
        payload = spec.to_dict()
        # None-valued optionals (quorum, auth) stay out of the JSON.
        assert "quorum" not in payload
        assert "auth_key_env" not in payload

    def test_protocol_must_be_concrete(self):
        with pytest.raises(ParameterError, match="concrete"):
            self._spec(protocol=ProtocolSpec(name="L-OSUE", alpha=0.5))

    def test_validation_catches_bad_fields(self):
        with pytest.raises(ParameterError, match="port"):
            self._spec(port=70000)
        with pytest.raises(ParameterError, match="n_rounds"):
            self._spec(n_rounds=0)
        with pytest.raises(ParameterError, match="quorum"):
            self._spec(quorum=0)
        with pytest.raises(ParameterError, match="auth_key_env"):
            self._spec(auth_key_env="")

    def test_unknown_fields_rejected(self):
        from repro.specs import IngestSpec

        with pytest.raises(ParameterError, match="unknown ingest spec fields"):
            IngestSpec.from_dict(
                {
                    "protocol": {"name": "L-OSUE", "k": 8, "eps_inf": 2.0, "eps_1": 1.0},
                    "n_rounds": 2,
                    "max_clients": 10,
                }
            )

    def test_missing_required_fields_rejected(self):
        from repro.specs import IngestSpec

        with pytest.raises(ParameterError, match="requires a 'protocol'"):
            IngestSpec.from_dict({"n_rounds": 2})

    def test_load_missing_or_invalid_file_rejected(self, tmp_path):
        from repro.specs import load_ingest_spec

        with pytest.raises(ParameterError, match="not found"):
            load_ingest_spec(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(ParameterError, match="invalid JSON"):
            load_ingest_spec(bad)
