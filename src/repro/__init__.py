"""NCL — Neural Concept Linking for healthcare (SIGMOD'18 reproduction).

Reproduction of Dai et al., "Fine-grained Concept Linking using Neural
Networks in Healthcare", SIGMOD 2018.  The package implements the full
system from first principles on NumPy:

* :mod:`repro.core` — the COM-AID encode-decode network with text and
  structure attention, its trainer, the two-phase online linker, and
  the expert-feedback controller;
* :mod:`repro.engine` — precompiled concept artifacts and the linking
  engine that serves from them;
* :mod:`repro.embeddings` — CBOW pre-training with concept-id
  injection;
* :mod:`repro.baselines` — the paper's five competitor methods;
* :mod:`repro.ontology` / :mod:`repro.kb` / :mod:`repro.datasets` —
  the concept-tree, knowledge-base, and synthetic-corpus substrates;
* :mod:`repro.nn` — the neural-network substrate (LSTM/attention with
  hand-derived backprop);
* :mod:`repro.eval` — metrics and per-figure experiment runners.

**Import from** :mod:`repro.api` — the stable, versioned public
surface::

    from repro.api import (hospital_x_like, pretrain_word_vectors,
                           ComAidConfig, TrainingConfig, LinkerConfig,
                           ComAidTrainer, NeuralConceptLinker)

The historical top-level re-exports (``from repro import ...``) still
resolve, but lazily and with a :class:`DeprecationWarning` naming the
``repro.api`` replacement; they will be removed in a future major
version.
"""

import warnings
from typing import Any, List

__version__ = "1.0.0"

#: Legacy top-level re-exports, now shimmed through :mod:`repro.api`.
_DEPRECATED_EXPORTS = (
    "CbowConfig",
    "ComAid",
    "ComAidConfig",
    "ComAidTrainer",
    "Concept",
    "FeedbackController",
    "KnowledgeBase",
    "LinkerConfig",
    "NeuralConceptLinker",
    "Ontology",
    "SnippetCorpus",
    "TrainingConfig",
    "hospital_x_like",
    "mimic_iii_like",
    "pretrain_word_vectors",
)

__all__ = [
    *sorted(_DEPRECATED_EXPORTS),
    "__version__",
]


def __getattr__(name: str) -> Any:
    """Resolve a legacy top-level re-export via :mod:`repro.api`.

    Emits a :class:`DeprecationWarning` naming the stable replacement;
    the resolved object is NOT cached on this module, so every legacy
    access keeps warning until the import is migrated.
    """
    if name in _DEPRECATED_EXPORTS:
        warnings.warn(
            f"importing {name!r} from 'repro' is deprecated; use "
            f"'from repro.api import {name}' (the stable v1 surface)",
            DeprecationWarning,
            stacklevel=2,
        )
        import repro.api

        return getattr(repro.api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    """Advertise the lazy legacy surface to ``dir()``/completion."""
    return sorted(set(globals()) | set(__all__))
