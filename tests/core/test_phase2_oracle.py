"""Differential oracle: every Phase-II entry point against the sequential decode.

A seeded query stream goes through ``link`` and ``link_batch`` on the
runtime-encoding path and on the engine path (``exact`` and ``sparse``
retrieval).  Every case must reproduce ``LinkerConfig(batch_phase2=False)``
on the runtime path — the configuration the benchmark oracle uses —
query for query: the same cids in the same order and log-probs within
1e-9.

Under an always-failing ``linker.phase2.batch`` fault the degraded
flags must follow from the oracle too: exactly the queries with a
candidate left to decode degrade (the sequential oracle never reaches
that site), each serving its Phase-I keyword ranking.
"""

import math

import numpy as np
import pytest

from repro.core.config import LinkerConfig, RetrievalConfig
from repro.core.linker import NeuralConceptLinker
from repro.engine.compile import compile_artifact
from repro.text.tokenize import tokenize
from repro.utils.faults import FaultSpec, fault_injection

from tests.serving.conftest import trained_pipeline  # noqa: F401

TOLERANCE = 1e-9
STREAM_SEED = 13
STREAM_LENGTH = 30
BATCH_SIZE = 4
K = 5


def _query_stream(ontology, kb, seed, length):
    """Seeded noisy queries: descriptions and aliases with words dropped,
    decorations added and a truncated-word typo, plus one no-match."""
    rng = np.random.default_rng(seed)
    sources = [list(concept.words) for concept in ontology.fine_grained()]
    sources += [tokenize(alias) for _, alias in kb.labeled_snippets()]
    vocabulary = sorted({word for words in sources for word in words})
    stream = []
    for _ in range(length):
        words = list(sources[rng.integers(len(sources))])
        kept = [word for word in words if rng.random() > 0.3]
        words = kept or words[:1]
        if rng.random() < 0.4:
            words.append(vocabulary[rng.integers(len(vocabulary))])
        if rng.random() < 0.2 and len(words[0]) > 4:
            words[0] = words[0][:-1]
        stream.append(" ".join(words))
    stream.append("qqqqq zzzzz")
    return stream


@pytest.fixture(scope="module")
def sparse_artifact(trained_pipeline, tmp_path_factory):  # noqa: F811
    ontology, kb, model = trained_pipeline
    directory = tmp_path_factory.mktemp("oracle") / "artifact"
    compile_artifact(directory, model, ontology, kb=kb, index="sparse")
    return directory


def _run(linker, entry, queries):
    if entry == "link":
        return [linker.link(query) for query in queries]
    results = []
    for start in range(0, len(queries), BATCH_SIZE):
        results.extend(linker.link_batch(queries[start:start + BATCH_SIZE]))
    return results


@pytest.mark.parametrize("entry", ["link", "link_batch"])
@pytest.mark.parametrize(
    "path,mode",
    [("runtime", "exact"), ("engine", "exact"), ("engine", "sparse")],
)
def test_matches_sequential_oracle(
    trained_pipeline, sparse_artifact, path, mode, entry  # noqa: F811
):
    ontology, kb, model = trained_pipeline
    queries = _query_stream(ontology, kb, STREAM_SEED, STREAM_LENGTH)
    oracle = NeuralConceptLinker(
        model, ontology, LinkerConfig(k=K, batch_phase2=False), kb=kb
    )
    config = LinkerConfig(k=K)
    if path == "engine":
        config = LinkerConfig(
            k=K,
            artifact_dir=str(sparse_artifact),
            retrieval=RetrievalConfig(mode=mode),
        )
    linker = NeuralConceptLinker(model, ontology, config, kb=kb)
    assert (linker.engine is not None) == (path == "engine")

    expected = [oracle.link(query) for query in queries]
    got = _run(linker, entry, queries)
    assert len(got) == len(expected)
    for query, mine, reference in zip(queries, got, expected):
        assert not mine.degraded and not reference.degraded, query
        assert [c.cid for c in mine.ranked] == [
            c.cid for c in reference.ranked
        ], query
        for left, right in zip(mine.ranked, reference.ranked):
            assert abs(left.log_prob - right.log_prob) <= TOLERANCE, query
            assert left.keyword_score == pytest.approx(
                right.keyword_score, abs=1e-12
            )

    with fault_injection({"linker.phase2.batch": FaultSpec(times=-1)}):
        faulted = _run(linker, entry, queries)
        oracle_faulted = [oracle.link(query) for query in queries]
    # The stream must exercise both outcomes.
    assert any(r.degraded for r in faulted)
    assert not all(r.degraded for r in faulted)
    for query, mine, reference in zip(queries, faulted, oracle_faulted):
        assert not reference.degraded, query
        needs_decode = any(
            oracle._effective_tokens(c.cid, reference.rewritten_tokens)
            is not None
            for c in reference.ranked
        )
        assert mine.degraded == needs_decode, query
        if mine.degraded:
            assert mine.degraded_reason.startswith("error:")
            keyword_order = sorted(
                reference.ranked, key=lambda c: (-c.keyword_score, c.cid)
            )
            assert [c.cid for c in mine.ranked] == [
                c.cid for c in keyword_order
            ], query
            assert all(c.log_prob == -math.inf for c in mine.ranked)
        else:
            assert [c.cid for c in mine.ranked] == [
                c.cid for c in reference.ranked
            ], query
