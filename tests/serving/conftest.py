"""Shared serving-layer fixtures: one tiny trained pipeline per module.

Training is the expensive part, so the model is module-scoped; tests
that need private cache state build their own (cheap) linker around
the shared model.
"""

import threading

import pytest

from repro.core.config import (
    ComAidConfig,
    LinkerConfig,
    ServingConfig,
    TrainingConfig,
)
from repro.core.linker import NeuralConceptLinker
from repro.core.trainer import ComAidTrainer
from repro.engine.compile import compile_artifact
from repro.kb.knowledge_base import KnowledgeBase
from repro.ontology.concept import Concept
from repro.ontology.ontology import Ontology
from repro.serving.service import ProcPoolLinkingService


def build_figure1_ontology() -> Ontology:
    ontology = Ontology()
    ontology.add(Concept("D50", "iron deficiency anemia"))
    ontology.add(
        Concept("D50.0", "iron deficiency anemia secondary to blood loss"),
        parent_cid="D50",
    )
    ontology.add(Concept("D53", "other nutritional anemias"))
    ontology.add(Concept("D53.0", "protein deficiency anemia"), parent_cid="D53")
    ontology.add(Concept("D53.2", "scorbutic anemia"), parent_cid="D53")
    ontology.add(Concept("N18", "chronic kidney disease"))
    ontology.add(
        Concept("N18.5", "chronic kidney disease, stage 5"), parent_cid="N18"
    )
    ontology.add(
        Concept("N18.9", "chronic kidney disease, unspecified"), parent_cid="N18"
    )
    ontology.add(Concept("R10", "abdominal and pelvic pain"))
    ontology.add(Concept("R10.0", "acute abdomen"), parent_cid="R10")
    ontology.add(Concept("R10.9", "unspecified abdominal pain"), parent_cid="R10")
    return ontology


def build_figure3_kb(ontology: Ontology) -> KnowledgeBase:
    kb = KnowledgeBase(ontology)
    kb.add_alias("D50.0", "anemia, chronic blood loss")
    kb.add_alias("D50.0", "hemorrhagic anemia")
    kb.add_alias("D53.0", "amino acid deficiency anemia")
    kb.add_alias("D53.2", "vitamin c deficiency anemia")
    kb.add_alias("N18.5", "ckd stage 5")
    kb.add_alias("N18.5", "end stage renal disease")
    kb.add_alias("N18.9", "chronic renal disease")
    kb.add_alias("R10.0", "acute abdominal syndrome")
    kb.add_alias("R10.0", "pain abdomen")
    kb.add_alias("R10.9", "abdomen pain unspecified")
    return kb


#: Query mix covering cache hits, rewrites, numerics, and no-match.
SERVING_QUERIES = [
    "ckd stage 5",
    "anemia blood loss",
    "vitamin c deficiency anemia",
    "protein deficiency anemia",
    "acute abdomen pain",
    "chronic kidney disease",
    "scorbutic anemia",
    "end stage renal disease",
]


@pytest.fixture(scope="module")
def trained_pipeline():
    """``(ontology, kb, model)`` — one small COM-AID fit per test module."""
    ontology = build_figure1_ontology()
    kb = build_figure3_kb(ontology)
    trainer = ComAidTrainer(
        ComAidConfig(dim=10, beta=2),
        TrainingConfig(
            epochs=8, batch_size=4, optimizer="adagrad", learning_rate=0.2
        ),
        rng=7,
    )
    model = trainer.fit(kb)
    return ontology, kb, model


@pytest.fixture
def make_linker(trained_pipeline):
    """Factory for fresh linkers (private cache state) over the shared model."""
    ontology, kb, model = trained_pipeline

    def factory(**config_kwargs) -> NeuralConceptLinker:
        config_kwargs.setdefault("k", 5)
        return NeuralConceptLinker(
            model, ontology, LinkerConfig(**config_kwargs), kb=kb
        )

    return factory


@pytest.fixture(scope="module")
def compiled_artifact(trained_pipeline, tmp_path_factory):
    """One compiled format-3 artifact over the shared trained model."""
    ontology, kb, model = trained_pipeline
    directory = tmp_path_factory.mktemp("procpool") / "artifact"
    compile_artifact(directory, model, ontology, kb=kb)
    return directory


@pytest.fixture
def make_worker_linker(trained_pipeline, compiled_artifact):
    """Factory for worker-shaped linkers over the mmap'd artifact.

    This is the exact configuration ``repro serve --workers N`` hands
    its forked children; tests override any knob per call.
    """
    ontology, kb, model = trained_pipeline

    def factory(**config_kwargs) -> NeuralConceptLinker:
        config_kwargs.setdefault("k", 5)
        config_kwargs.setdefault("artifact_dir", str(compiled_artifact))
        config_kwargs.setdefault("mmap_artifact", True)
        return NeuralConceptLinker(
            model, ontology, LinkerConfig(**config_kwargs), kb=kb
        )

    return factory


@pytest.fixture
def make_procpool_service(trained_pipeline, make_worker_linker):
    """Factory for multi-process services; all built services are
    stopped (pools torn down) at test exit, passing or not."""
    ontology, _, _ = trained_pipeline
    created = []

    def factory(
        workers: int = 2,
        linker_kwargs: dict | None = None,
        build_linker=None,
        **serving_kwargs,
    ) -> ProcPoolLinkingService:
        if build_linker is None:
            linker = make_worker_linker(**(linker_kwargs or {}))

            def build_linker():
                return linker

        config = ServingConfig(workers=workers, **serving_kwargs)
        service = ProcPoolLinkingService(build_linker, ontology, config)
        created.append(service)
        return service

    yield factory
    for service in created:
        service.stop()


class GatedWarmup:
    """Wraps ``linker.warm_cache`` so a test controls when warm-up ends."""

    def __init__(self, linker: NeuralConceptLinker) -> None:
        self.release = threading.Event()
        self.entered = threading.Event()
        original = linker.warm_cache

        def gated(cids=None):
            self.entered.set()
            assert self.release.wait(10.0), "test never released warm-up"
            return original(cids)

        linker.warm_cache = gated  # type: ignore[method-assign]
