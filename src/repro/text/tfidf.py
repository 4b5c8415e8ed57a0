"""TF-IDF inverted index for Phase-I candidate retrieval.

Paper Section 5, Phase I: *"We generate candidate concepts using keyword
search.  More specifically, we compute the cosine similarity between
each concept c and query q with the TF-IDF weighting scheme, and then
return the top-k concepts with the largest similarity as the
candidates."*

The index stores one document per concept (its canonical description,
optionally extended with aliases) and answers top-k cosine queries via
an inverted list, so query cost scales with posting-list length rather
than corpus size — this is what the Figure 11 CR-time measurements
exercise.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.utils.errors import NotFittedError


@dataclass(frozen=True)
class TfIdfMatch:
    """One retrieval hit: the document key and its cosine score."""

    key: Hashable
    score: float


@dataclass(frozen=True)
class CorpusStats:
    """Document frequencies of a whole corpus, detached from any index.

    A compiled concept artifact freezes the statistics its Phase-I
    documents were indexed with.  ``CorpusStats`` carries that global
    ``df`` / ``doc_count`` so an index over any subset of the corpus
    can be fitted with :meth:`TfIdfIndex.fit` s ``stats=`` override
    and produce cosines bit-identical to one index over the full
    corpus.
    """

    doc_count: int
    df: Mapping[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (used by the compiled concept artifact)."""
        return {"doc_count": self.doc_count, "df": dict(self.df)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "CorpusStats":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            doc_count=int(payload["doc_count"]),
            df={str(term): int(count) for term, count in dict(payload["df"]).items()},
        )


class TfIdfIndex:
    """Inverted index with ltc-style TF-IDF weighting.

    Term weight: ``(1 + log tf) * (1 + log((N + 1) / (df + 1)))`` with
    document-length (L2) normalisation; query weights use the same
    scheme.  The additive 1 keeps the IDF strictly positive even for a
    term occurring in every document (df = N), and the smoothed
    denominator keeps query-only terms harmless instead of raising.
    """

    def __init__(self) -> None:
        self._postings: Dict[str, List[Tuple[int, float]]] = {}
        self._keys: List[Hashable] = []
        self._norms: List[float] = []
        self._doc_count = 0
        self._df: Counter = Counter()
        self._fitted = False

    # -- construction -------------------------------------------------

    def fit(
        self,
        documents: Iterable[Tuple[Hashable, Sequence[str]]],
        stats: Optional[CorpusStats] = None,
    ) -> "TfIdfIndex":
        """Index ``(key, tokens)`` documents. Replaces any prior state.

        ``stats`` substitutes external corpus statistics for the ones
        derived from ``documents``: IDF weights (document *and* query
        side) are then computed from the supplied global ``df`` /
        ``doc_count`` instead of the indexed slice, so an index over a
        subset of the concept documents produces cosines identical to
        one index over all of them.
        """
        staged: List[Tuple[Hashable, Counter]] = []
        self._df = Counter()
        for key, tokens in documents:
            term_freq = Counter(tokens)
            staged.append((key, term_freq))
            self._df.update(term_freq.keys())
        if stats is not None:
            self._df = Counter(stats.df)
            self._doc_count = stats.doc_count
        else:
            self._doc_count = len(staged)
        self._keys = []
        self._norms = []
        self._postings = {}
        for doc_id, (key, term_freq) in enumerate(staged):
            self._keys.append(key)
            weights = {
                term: self._tf_weight(count) * self._idf(term)
                for term, count in term_freq.items()
            }
            norm = math.sqrt(sum(weight * weight for weight in weights.values()))
            self._norms.append(norm if norm > 0 else 1.0)
            for term, weight in weights.items():
                self._postings.setdefault(term, []).append((doc_id, weight))
        self._fitted = True
        return self

    def _tf_weight(self, count: int) -> float:
        return 1.0 + math.log(count) if count > 0 else 0.0

    def _idf(self, term: str) -> float:
        return 1.0 + math.log(
            (self._doc_count + 1) / (self._df.get(term, 0) + 1)
        )

    # -- queries -------------------------------------------------------

    def search(self, tokens: Sequence[str], k: int = 10) -> List[TfIdfMatch]:
        """Top-``k`` documents by cosine similarity to ``tokens``.

        Fewer than ``k`` matches are returned when fewer documents share
        any term with the query (the paper observes exactly this
        sub-linear candidate growth for large k in Figure 11).
        """
        if not self._fitted:
            raise NotFittedError("TfIdfIndex.search called before fit")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        # Terms are admitted by *corpus* document frequency, not by
        # membership in this index's postings: under external stats a
        # term can exist in the corpus but have no postings in this
        # index, and it must still contribute to the query norm or the
        # cosines would leave the global scale.  Without
        # external stats df > 0 iff the term has postings, so the
        # behaviour is unchanged.
        query_freq = Counter(tokens)
        query_weights = {
            term: self._tf_weight(count) * self._idf(term)
            for term, count in query_freq.items()
            if self._df.get(term, 0) > 0
        }
        if not query_weights:
            return []
        query_norm = math.sqrt(
            sum(weight * weight for weight in query_weights.values())
        )
        scores: Dict[int, float] = {}
        for term, query_weight in query_weights.items():
            for doc_id, doc_weight in self._postings.get(term, ()):
                scores[doc_id] = scores.get(doc_id, 0.0) + query_weight * doc_weight
        # Sort by the exact cosine that is reported: dividing by the
        # query norm inside the sort key keeps ties and near-ties in
        # the same order the caller observes (raw/norm and
        # raw/(norm*qnorm) can round to differently-ordered floats).
        cosines = {
            doc_id: raw / (self._norms[doc_id] * query_norm)
            for doc_id, raw in scores.items()
        }
        ranked = sorted(cosines.items(), key=lambda item: (-item[1], item[0]))
        return [
            TfIdfMatch(key=self._keys[doc_id], score=cosine)
            for doc_id, cosine in ranked[:k]
        ]

    def postings_examined(self, tokens: Sequence[str]) -> int:
        """Number of postings a query over ``tokens`` would touch.

        Exposed for the efficiency study: Figure 11(c,d) attributes
        CR-time growth with |q| to "more postings in the inverted index
        are examined".
        """
        if not self._fitted:
            raise NotFittedError("TfIdfIndex.postings_examined called before fit")
        return sum(
            len(self._postings.get(term, ())) for term in set(tokens)
        )

    # -- introspection --------------------------------------------------

    def stats(self) -> CorpusStats:
        """This index's corpus statistics, reusable as a ``fit`` override."""
        if not self._fitted:
            raise NotFittedError("TfIdfIndex.stats called before fit")
        return CorpusStats(doc_count=self._doc_count, df=dict(self._df))

    def __len__(self) -> int:
        # Locally indexed documents — under external stats this differs
        # from the (global) ``doc_count`` driving the IDF weights.
        return len(self._keys)

    @property
    def vocabulary(self) -> Tuple[str, ...]:
        return tuple(sorted(self._postings))

    def document_frequency(self, term: str) -> int:
        """Number of indexed documents containing ``term``."""
        return self._df.get(term, 0)

    def idf(self, term: str) -> Optional[float]:
        """Smoothed inverse document frequency of ``term``."""
        if not self._fitted:
            raise NotFittedError("TfIdfIndex.idf called before fit")
        return self._idf(term)
