"""Linking engine over precompiled concept artifacts.

The paper's online cost analysis (Section 5, Figure 11) shows the
encode-decode forward passes dominating linking time, and its target
deployments (full SNOMED/ICD-scale ontologies) are orders of magnitude
larger than the fixtures — per-query concept encoding does not survive
that scale.  This package moves every per-concept computation offline:

* :mod:`repro.engine.compile` — the ``repro compile`` step: encode
  every fine-grained concept once (final encoder states ``h_c``, the
  per-word text-attention memories, Def.-4.1 structure memories, and
  the Phase-I TF-IDF documents/statistics) into a versioned,
  checksummed artifact directory written through the atomic
  persistence layer;
* :mod:`repro.engine.shards` — the engine that serves Phase-I
  retrieval and batched Phase-II scoring from that artifact's
  zero-copy encoding slab.

Rankings and log-probs are identical to the runtime-encoding linker
(proven by ``tests/engine/test_shards.py``).
"""

from repro.engine.compile import (
    ARTIFACT_FORMAT,
    ConceptArtifact,
    compile_artifact,
    load_artifact,
    verify_artifact,
)
from repro.engine.shards import ShardedConceptEngine

__all__ = [
    "ARTIFACT_FORMAT",
    "ConceptArtifact",
    "ShardedConceptEngine",
    "compile_artifact",
    "load_artifact",
    "verify_artifact",
]
