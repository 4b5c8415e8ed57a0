"""RuntimeConfig: the one path from raw mappings to validated configs."""

import json

import pytest

from repro.core.config import (
    ComAidConfig,
    LinkerConfig,
    RuntimeConfig,
    ServingConfig,
    TrainingConfig,
)
from repro.utils.errors import ConfigurationError


class TestRoundTrip:
    def test_defaults_round_trip(self):
        runtime = RuntimeConfig()
        assert RuntimeConfig.from_dict(runtime.to_dict()) == runtime

    def test_overrides_round_trip(self):
        runtime = RuntimeConfig(
            model=ComAidConfig(dim=12, beta=3),
            training=TrainingConfig(epochs=2, optimizer="sgd"),
            linker=LinkerConfig(k=7, artifact_dir="a/"),
            serving=ServingConfig(port=0, max_batch_size=4),
        )
        payload = runtime.to_dict()
        assert payload["model"]["dim"] == 12
        assert payload["linker"]["artifact_dir"] == "a/"
        assert RuntimeConfig.from_dict(payload) == runtime

    def test_to_dict_is_json_serialisable(self):
        json.dumps(RuntimeConfig().to_dict())

    def test_absent_sections_take_defaults(self):
        runtime = RuntimeConfig.from_dict({"linker": {"k": 9}})
        assert runtime.linker.k == 9
        assert runtime.model == ComAidConfig()
        assert runtime.serving == ServingConfig()

    def test_dataclass_instances_pass_through(self):
        linker = LinkerConfig(k=3)
        runtime = RuntimeConfig.from_dict({"linker": linker})
        assert runtime.linker is linker

    def test_nested_retrieval_round_trips(self):
        runtime = RuntimeConfig(
            linker=LinkerConfig(
                artifact_dir="a/",
                retrieval={"mode": "hybrid", "fusion_method": "rrf"},
            )
        )
        payload = runtime.to_dict()
        assert payload["linker"]["retrieval"]["mode"] == "hybrid"
        json.dumps(payload)
        restored = RuntimeConfig.from_dict(payload)
        assert restored == runtime
        assert restored.linker.retrieval.fusion_method == "rrf"


class TestRejection:
    def test_unknown_section_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config section"):
            RuntimeConfig.from_dict({"linkr": {"k": 5}})

    def test_unknown_key_is_rejected_with_the_offender_named(self):
        with pytest.raises(ConfigurationError, match=r"\['kk'\]"):
            RuntimeConfig.from_dict({"linker": {"kk": 5}})

    def test_non_mapping_payload_is_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            RuntimeConfig.from_dict(["linker"])

    def test_non_mapping_section_is_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            RuntimeConfig.from_dict({"linker": 5})

    def test_value_validation_is_delegated_to_the_section(self):
        with pytest.raises(ConfigurationError, match="k must be >= 1"):
            RuntimeConfig.from_dict({"linker": {"k": 0}})

    def test_removed_shards_key_is_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\['shards'\]"):
            RuntimeConfig.from_dict({"linker": {"shards": 2}})


class TestFromFile:
    def test_reads_a_json_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"serving": {"port": 0}, "linker": {"k": 4}}),
            encoding="utf-8",
        )
        runtime = RuntimeConfig.from_file(path)
        assert runtime.serving.port == 0
        assert runtime.linker.k == 4

    def test_missing_file_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            RuntimeConfig.from_file(tmp_path / "nope.json")

    def test_invalid_json_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            RuntimeConfig.from_file(path)


class TestReplaceSection:
    def test_layers_overrides_onto_one_section(self):
        base = RuntimeConfig.from_dict({"linker": {"k": 4}})
        layered = base.replace_section("linker", k=9)
        assert layered.linker.k == 9
        assert base.linker.k == 4  # frozen: the original is untouched
        assert layered.serving == base.serving

    def test_unknown_section_is_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config section"):
            RuntimeConfig().replace_section("linkr", k=9)

    def test_unknown_key_is_rejected(self):
        with pytest.raises(ConfigurationError, match=r"\['kk'\]"):
            RuntimeConfig().replace_section("linker", kk=9)
