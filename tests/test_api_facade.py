"""The stable v1 facade: resolution, helpers, and deprecation shims."""

import warnings

import pytest

import repro
import repro.api as api


class TestSurface:
    def test_api_version(self):
        # Minor bumps on compatible additions (1.1 added retrieval,
        # 1.2 the model lifecycle, 1.3 multi-process serving, 1.4
        # cross-process observability, 1.5 multi-tenant serving and
        # cross-ontology mapping, 1.6 the single-partition engine); the
        # major component is the /v1 route contract.
        assert api.API_VERSION == "1.6"
        assert api.API_VERSION.split(".")[0] == "1"

    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None, name

    def test_dir_lists_the_full_surface(self):
        listed = dir(api)
        for name in api.__all__:
            assert name in listed

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            api.definitely_not_exported

    def test_helpers_are_callable(self):
        for helper in ("train", "load_linker", "link", "link_batch",
                       "compile_artifact"):
            assert callable(getattr(api, helper)), helper

    def test_exports_cover_the_core_lifecycle(self):
        for name in (
            "ComAidConfig", "TrainingConfig", "LinkerConfig", "ServingConfig",
            "RuntimeConfig", "ComAid", "ComAidTrainer", "NeuralConceptLinker",
            "LinkResult", "KnowledgeBase", "Ontology", "load_pipeline",
            "save_pipeline", "load_artifact", "ShardedConceptEngine",
            "LinkingService", "ReproError",
        ):
            assert name in api.__all__, name


class TestDeprecationShims:
    def test_top_level_import_warns_but_works(self):
        with pytest.warns(DeprecationWarning, match="repro.api"):
            linker_cls = repro.NeuralConceptLinker
        assert linker_cls is api.NeuralConceptLinker

    def test_every_legacy_name_still_resolves(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                legacy = getattr(repro, name)
            assert legacy is getattr(api, name), name

    def test_repeat_access_keeps_warning(self):
        # The shim must not cache: each legacy access is a nudge.
        for _ in range(2):
            with pytest.warns(DeprecationWarning):
                repro.ComAidTrainer

    def test_version_attribute_is_not_deprecated(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert repro.__version__
