"""The concept engine: provable equivalence and failure behaviour."""

import math

import numpy as np
import pytest

from repro.core.candidates import CandidateGenerator
from repro.core.config import LinkerConfig
from repro.core.linker import NeuralConceptLinker
from repro.engine.shards import ShardedConceptEngine
from repro.utils.faults import FaultSpec, InjectedFault, fault_injection

from tests.engine.conftest import ENGINE_QUERIES

#: Top-k cut-offs (and candidate batch sizes) the equivalence checks run at.
SIZES = (1, 2, 4)


@pytest.fixture(scope="package")
def baseline_linker(engine_stack):
    """The runtime-encoding reference the engine must reproduce."""
    ontology, kb, model, _ = engine_stack
    return NeuralConceptLinker(model, ontology, LinkerConfig(k=5), kb=kb)


def make_engine_linker(engine_stack):
    ontology, kb, model, artifact_dir = engine_stack
    return NeuralConceptLinker(
        model,
        ontology,
        LinkerConfig(k=5, artifact_dir=str(artifact_dir)),
        kb=kb,
    )


class TestShardEquivalence:
    @pytest.mark.parametrize("k", SIZES)
    def test_retrieve_matches_monolithic_generator(self, engine_stack,
                                                   artifact, k):
        ontology, _, model, _ = engine_stack
        monolithic = CandidateGenerator.from_documents(
            ontology, artifact.documents
        )
        engine = ShardedConceptEngine(model, ontology, artifact)
        for query in ENGINE_QUERIES:
            tokens = query.split()
            expected = monolithic.generate(tokens, k)
            got = engine.retrieve(tokens, k)
            assert [cid for cid, _ in got] == [cid for cid, _ in expected]
            for (_, score), (_, reference) in zip(got, expected):
                assert score == pytest.approx(reference, abs=1e-9)

    @pytest.mark.parametrize("candidates", SIZES)
    def test_score_batch_matches_whole_batch_scoring(self, engine_stack,
                                                     artifact, candidates):
        ontology, _, model, _ = engine_stack
        cids = list(artifact.cids)[:candidates]
        query_ids = model.words_to_ids("ckd stage 5".split())
        batch = [
            (artifact.encoding_of(cid), artifact.structure_memory_of(cid))
            for cid in cids
        ]
        expected = model.score_batch([query_ids] * len(cids), batch)
        engine = ShardedConceptEngine(model, ontology, artifact)
        got = engine.score_batch([query_ids] * len(cids), cids)
        np.testing.assert_allclose(got, expected, atol=1e-9)

    @pytest.mark.parametrize("k", SIZES)
    def test_linker_rankings_identical_to_runtime_encoding(
        self, engine_stack, baseline_linker, k
    ):
        linker = make_engine_linker(engine_stack)
        for query in ENGINE_QUERIES:
            expected = baseline_linker.link(query, k=k)
            got = linker.link(query, k=k)
            assert [c.cid for c in got.ranked] == [
                c.cid for c in expected.ranked
            ]
            for mine, reference in zip(got.ranked, expected.ranked):
                assert mine.log_prob == pytest.approx(
                    reference.log_prob, abs=1e-9
                )
                assert mine.keyword_score == pytest.approx(
                    reference.keyword_score, abs=1e-12
                )

    def test_linker_adopts_the_engine_generator(self, engine_stack):
        # One Phase-I index per deployment: the linker's candidates are
        # the engine's, not a second index over the same documents.
        linker = make_engine_linker(engine_stack)
        assert linker.candidates is linker.engine.candidates


class TestShardFailures:
    def test_retrieval_failure_propagates(self, engine_stack, artifact):
        ontology, _, model, _ = engine_stack
        engine = ShardedConceptEngine(model, ontology, artifact)
        with fault_injection({"engine.retrieve": FaultSpec(times=1)}):
            with pytest.raises(InjectedFault):
                engine.retrieve("ckd stage 5".split(), 5)
        assert engine.retrieve("ckd stage 5".split(), 5)

    def test_scoring_failure_propagates_the_original_error(
        self, engine_stack, artifact
    ):
        ontology, _, model, _ = engine_stack
        query_ids = model.words_to_ids("ckd stage 5".split())
        engine = ShardedConceptEngine(model, ontology, artifact)
        with fault_injection({"engine.score": FaultSpec(times=-1)}):
            with pytest.raises(InjectedFault):
                engine.score_batch([query_ids], [artifact.cids[0]])

    def test_worker_death_mid_request_degrades_the_linker(self, engine_stack):
        """Engine scoring failing during Phase II must not fail the
        query: ``degrade_on_error`` serves the Phase-I keyword ranking."""
        linker = make_engine_linker(engine_stack)
        clean = linker.link("ckd stage 5")
        assert not clean.degraded
        with fault_injection({"engine.score": FaultSpec(times=-1)}):
            result = linker.link("ckd stage 5")
        assert result.degraded
        assert result.degraded_reason.startswith("error:")
        assert {c.cid for c in result.ranked} == {
            c.cid for c in clean.ranked
        }
        keyword_scores = [c.keyword_score for c in result.ranked]
        assert keyword_scores == sorted(keyword_scores, reverse=True)
        assert all(c.log_prob == -math.inf for c in result.ranked)
