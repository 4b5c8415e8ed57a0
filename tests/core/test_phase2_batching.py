"""Equivalence of batched Phase-II scoring with the sequential reference.

The batched decoder (``ComAid.score_batch``, the linker's only serving
path) is a numerical refactor of the paper's Eq. 5–9 hot path, so every
claim ships with a proof against the sequential oracle
(``LinkerConfig(batch_phase2=False)``):

* ``score_batch`` log-probs match per-candidate ``score_with_encodings``
  to ≤1e-9 for randomized models (all four ablations × both cells,
  plus a hypothesis sweep over shapes);
* ``link()``/``link_batch()`` rankings, scores, keyword scores, and
  tie order are identical to the oracle's, with one decode per call;
* heterogeneous candidate sets — different description lengths,
  different ontology depths including Def. 4.1's first-level-duplication
  padding — are masked correctly;
* the trivially-decodable shortcut (query fully covered by the
  description) short-circuits to exactly 0.0 on both paths.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.comaid import ComAid
from repro.core.config import ComAidConfig, LinkerConfig
from repro.core.linker import NeuralConceptLinker
from repro.kb.knowledge_base import KnowledgeBase
from repro.ontology.concept import Concept
from repro.ontology.ontology import Ontology
from repro.text.vocab import Vocabulary
from repro.utils.errors import DataError
from repro.utils.faults import FaultSpec, fault_injection

from tests.serving.conftest import make_linker, trained_pipeline  # noqa: F401

TOLERANCE = 1e-9


def _model(
    dim=9,
    beta=2,
    cell="lstm",
    use_text=True,
    use_struct=True,
    vocab_size=30,
    seed=7,
) -> ComAid:
    vocab = Vocabulary()
    for index in range(vocab_size):
        vocab.add(f"w{index}")
    config = ComAidConfig(
        dim=dim,
        beta=beta,
        use_text_attention=use_text,
        use_structure_attention=use_struct,
        cell=cell,
    )
    return ComAid(config, vocab, rng=seed)


def _word_ids(model: ComAid, rng: np.random.Generator, length: int):
    vocab_words = len(model.vocab) - 4  # specials are never drawn
    return model.words_to_ids(
        [f"w{int(rng.integers(0, vocab_words))}" for _ in range(length)]
    )


def _random_candidates(model: ComAid, rng: np.random.Generator, count: int):
    """Heterogeneous candidates: description/ancestor/query lengths vary."""
    candidates, queries = [], []
    for _ in range(count):
        encoding = model.encode_concept(
            _word_ids(model, rng, int(rng.integers(1, 7))), keep_caches=False
        )
        ancestors = []
        if model.config.use_structure_attention:
            ancestors = [
                model.encode_concept(
                    _word_ids(model, rng, int(rng.integers(1, 5))),
                    keep_caches=False,
                )
                for _ in range(model.config.beta)
            ]
        candidates.append((encoding, ancestors))
        queries.append(_word_ids(model, rng, int(rng.integers(1, 6))))
    return queries, candidates


class TestScoreBatchEquivalence:
    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    @pytest.mark.parametrize(
        "use_text,use_struct",
        [(True, True), (True, False), (False, True), (False, False)],
    )
    def test_matches_sequential_per_candidate(self, cell, use_text, use_struct):
        model = _model(cell=cell, use_text=use_text, use_struct=use_struct)
        rng = np.random.default_rng(11)
        queries, candidates = _random_candidates(model, rng, count=8)
        batched = model.score_batch(queries, candidates)
        for row, ((encoding, ancestors), query) in enumerate(
            zip(candidates, queries)
        ):
            sequential = model.score_with_encodings(encoding, ancestors, query)
            assert abs(batched[row] - sequential) <= TOLERANCE

    def test_single_candidate_batch(self):
        model = _model()
        rng = np.random.default_rng(5)
        queries, candidates = _random_candidates(model, rng, count=1)
        batched = model.score_batch(queries, candidates)
        sequential = model.score_with_encodings(
            candidates[0][0], candidates[0][1], queries[0]
        )
        assert batched.shape == (1,)
        assert abs(batched[0] - sequential) <= TOLERANCE

    def test_order_invariance(self):
        # Scores are per-candidate properties: permuting the batch
        # permutes the outputs and nothing else.
        model = _model()
        rng = np.random.default_rng(13)
        queries, candidates = _random_candidates(model, rng, count=6)
        forward = model.score_batch(queries, candidates)
        permutation = [4, 0, 5, 2, 1, 3]
        shuffled = model.score_batch(
            [queries[i] for i in permutation],
            [candidates[i] for i in permutation],
        )
        np.testing.assert_allclose(
            shuffled, forward[permutation], rtol=0, atol=TOLERANCE
        )

    def test_validation(self):
        model = _model()
        rng = np.random.default_rng(3)
        queries, candidates = _random_candidates(model, rng, count=2)
        with pytest.raises(DataError):
            model.score_batch(queries[:1], candidates)
        with pytest.raises(DataError):
            model.score_batch([], [])
        with pytest.raises(DataError):
            model.score_batch([queries[0], []], candidates)
        # Wrong ancestor-path length (Def. 4.1 demands exactly beta).
        bad = [(candidates[0][0], candidates[0][1][:1]), candidates[1]]
        with pytest.raises(DataError):
            model.score_batch(queries, bad)

    @pytest.mark.property
    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(min_value=2, max_value=8),
        beta=st.integers(min_value=1, max_value=3),
        cell=st.sampled_from(["lstm", "gru"]),
        use_text=st.booleans(),
        use_struct=st.booleans(),
        count=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_random_shapes(
        self, dim, beta, cell, use_text, use_struct, count, seed
    ):
        model = _model(
            dim=dim,
            beta=beta,
            cell=cell,
            use_text=use_text,
            use_struct=use_struct,
            vocab_size=12,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        queries, candidates = _random_candidates(model, rng, count=count)
        batched = model.score_batch(queries, candidates)
        for row, ((encoding, ancestors), query) in enumerate(
            zip(candidates, queries)
        ):
            sequential = model.score_with_encodings(encoding, ancestors, query)
            assert abs(batched[row] - sequential) <= TOLERANCE


def _assert_links_equivalent(batched_result, sequential_result):
    assert not batched_result.degraded and not sequential_result.degraded
    assert [c.cid for c in batched_result.ranked] == [
        c.cid for c in sequential_result.ranked
    ]
    for batched, sequential in zip(
        batched_result.ranked, sequential_result.ranked
    ):
        assert abs(batched.log_prob - sequential.log_prob) <= TOLERANCE
        assert batched.keyword_score == sequential.keyword_score


class TestLinkerEquivalence:
    QUERIES = [
        "ckd stage 5",
        "anemia blood loss",
        "vitamin c deficiency anemia",
        "acute abdomen pain",
        "chronic kidney disease",
        "protein deficiency anemia",
    ]

    def test_link_identical_on_off(self, make_linker):
        batched = make_linker(batch_phase2=True)
        sequential = make_linker(batch_phase2=False)
        for query in self.QUERIES:
            _assert_links_equivalent(
                batched.link(query), sequential.link(query)
            )

    def test_link_batch_identical_on_off(self, make_linker):
        batched = make_linker(batch_phase2=True)
        sequential = make_linker(batch_phase2=False)
        for batched_result, sequential_result in zip(
            batched.link_batch(self.QUERIES),
            sequential.link_batch(self.QUERIES),
        ):
            _assert_links_equivalent(batched_result, sequential_result)

    def test_fully_covered_query_scores_exact_zero(self, make_linker):
        # Every query word appears in D50.0's canonical description, so
        # both paths short-circuit to log p = 0.0 exactly (no decode).
        for flag in (True, False):
            result = make_linker(batch_phase2=flag).link(
                "iron deficiency anemia"
            )
            assert result.rank_of("D50.0") == 1
            top = result.top
            assert top.cid == "D50.0" and top.log_prob == 0.0

    def test_tie_order_preserved(self, make_linker):
        # Keyword-score ties are broken by the stable sort over the
        # Phase-I hit order; the batched path must preserve that order
        # bit-for-bit, not merely the multiset of cids.
        batched = make_linker(batch_phase2=True)
        sequential = make_linker(batch_phase2=False)
        for query in self.QUERIES:
            left = [
                (c.cid, c.keyword_score) for c in batched.link(query).ranked
            ]
            right = [
                (c.cid, c.keyword_score) for c in sequential.link(query).ranked
            ]
            assert left == right


def _heterogeneous_linker(batch_phase2: bool) -> NeuralConceptLinker:
    """A linker whose candidate sets mix ontology depths and description
    lengths: a first-level leaf (Def. 4.1 pads its path by duplicating
    itself), second-level leaves, and a third-level leaf with real
    ancestors — all retrievable by the shared word "pain"."""
    ontology = Ontology()
    ontology.add(Concept("P00", "pain"))  # first-level, childless
    ontology.add(Concept("R10", "abdominal and pelvic pain"))
    ontology.add(
        Concept("R10.0", "acute abdomen pain syndrome"), parent_cid="R10"
    )
    ontology.add(
        Concept("R10.1", "pain localized to upper abdomen region"),
        parent_cid="R10",
    )
    ontology.add(Concept("G89", "pain not elsewhere classified"))
    ontology.add(Concept("G89.2", "chronic pain"), parent_cid="G89")
    ontology.add(
        Concept("G89.21", "chronic pain due to trauma syndrome"),
        parent_cid="G89.2",
    )
    kb = KnowledgeBase(ontology)
    vocab = Vocabulary()
    for concept in ontology:
        vocab.add_all(concept.words)
    vocab.add_all(["severe", "unexplained"])
    model = ComAid(ComAidConfig(dim=8, beta=2), vocab, rng=29)
    return NeuralConceptLinker(
        model,
        ontology,
        LinkerConfig(k=10, batch_phase2=batch_phase2),
        kb=kb,
    )


class TestHeterogeneousCandidates:
    QUERIES = [
        "severe pain syndrome",
        "chronic abdomen pain",
        "pain syndrome trauma",
        "unexplained pain",
    ]

    def test_mixed_depths_and_lengths_match_sequential(self):
        batched = _heterogeneous_linker(batch_phase2=True)
        sequential = _heterogeneous_linker(batch_phase2=False)
        for query in self.QUERIES:
            batched_result = batched.link(query)
            # The point of the fixture: one candidate set spans depths
            # 1–3 and description lengths 1–6.
            cids = {c.cid for c in batched_result.ranked}
            assert "P00" in cids and "G89.21" in cids
            _assert_links_equivalent(batched_result, sequential.link(query))

    def test_first_level_duplication_padding(self):
        # P00 has no ancestors; its structural context is <P00, P00, P00>
        # (Def. 4.1).  The batched (k, beta, d) structure memory must
        # reproduce that duplicated block exactly.
        linker = _heterogeneous_linker(batch_phase2=True)
        ancestors = linker._ancestor_encodings("P00")
        assert len(ancestors) == 2
        np.testing.assert_array_equal(ancestors[0].final_h, ancestors[1].final_h)
        score_batched = linker._phase_two(
            [linker._phase_one("severe pain syndrome", 10)], [None]
        )[0].ranked
        by_cid = {c.cid: c.log_prob for c in score_batched}
        assert math.isfinite(by_cid["P00"])
        assert abs(
            by_cid["P00"]
            - linker._score_candidate("P00", ("severe", "pain", "syndrome"))
        ) <= TOLERANCE


class TestFusedPhase2Equivalence:
    """Cross-request Phase-II fusion.

    ``link_batch`` runs ONE ``score_batch`` decode over every surviving
    candidate of every query in the batch — the serving tier's
    cross-request GEMM.  ``score_batch`` rows are batch-composition
    independent (``test_order_invariance``), so the fused results must
    match the sequential oracle query for query.
    """

    QUERIES = TestLinkerEquivalence.QUERIES

    def test_link_batch_fused_matches_sequential(self, make_linker):
        fused = make_linker(batch_phase2=True)
        sequential = make_linker(batch_phase2=False)
        for fused_result, sequential_result in zip(
            fused.link_batch(self.QUERIES),
            sequential.link_batch(self.QUERIES),
        ):
            _assert_links_equivalent(fused_result, sequential_result)

    def test_single_query_batch_short_circuits_to_reference(
        self, make_linker
    ):
        # A one-query batch is a one-item fusion — the same computation
        # link() runs — and must agree with it.
        fused = make_linker()
        reference = make_linker()
        _assert_links_equivalent(
            fused.link_batch(["ckd stage 5"])[0],
            reference.link("ckd stage 5"),
        )

    def test_fused_heterogeneous_candidates(self):
        fused = _heterogeneous_linker(batch_phase2=True)
        sequential = _heterogeneous_linker(batch_phase2=False)
        queries = TestHeterogeneousCandidates.QUERIES
        for fused_result, sequential_result in zip(
            fused.link_batch(queries), sequential.link_batch(queries)
        ):
            _assert_links_equivalent(fused_result, sequential_result)

    def test_fused_decode_is_one_batch_site_hit(self, make_linker):
        # The whole point: N queries, ONE fused decode.
        fused = make_linker()
        with fault_injection(
            {"linker.phase2.batch": FaultSpec(action="delay", times=0)}
        ) as plan:
            fused.link_batch(self.QUERIES[:4])
        assert plan.hits("linker.phase2.batch") == 1

    def test_fused_degrades_per_query_not_per_batch(self, make_linker):
        fused = make_linker()
        reference = make_linker()
        # Fail the first candidate probe: only the query that owns it
        # degrades; the other rides the fused decode untouched.
        with fault_injection({"linker.phase2": FaultSpec(times=1)}):
            results = fused.link_batch(["ckd stage 5", "anemia blood loss"])
        assert results[0].degraded
        assert results[0].degraded_reason.startswith("error:")
        assert not results[1].degraded
        _assert_links_equivalent(
            results[1], reference.link("anemia blood loss")
        )

    def test_fused_tie_order_preserved(self, make_linker):
        fused = make_linker()
        sequential = make_linker(batch_phase2=False)
        left = [
            [(c.cid, c.keyword_score) for c in result.ranked]
            for result in fused.link_batch(self.QUERIES)
        ]
        right = [
            [(c.cid, c.keyword_score) for c in result.ranked]
            for result in sequential.link_batch(self.QUERIES)
        ]
        assert left == right


class TestBatchProbeSite:
    """The ``faults`` harness's new ``linker.phase2.batch`` site."""

    def test_sequential_path_never_hits_batch_site(self, make_linker):
        linker = make_linker(batch_phase2=False)
        with fault_injection(
            {"linker.phase2.batch": FaultSpec(times=-1)}
        ) as plan:
            result = linker.link("ckd stage 5")
        assert not result.degraded
        assert plan.hits("linker.phase2.batch") == 0

    def test_batched_path_hits_site_once_per_query(self, make_linker):
        linker = make_linker(batch_phase2=True)
        with fault_injection(
            {"linker.phase2.batch": FaultSpec(action="delay", times=0)}
        ) as plan:
            linker.link("ckd stage 5")
            linker.link("anemia blood loss")
        assert plan.hits("linker.phase2.batch") == 2
