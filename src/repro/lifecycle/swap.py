"""Blue/green artifact swapping inside a live serving process.

:class:`ArtifactSwapper` owns the candidate half of the deployment: a
retrained model plus its freshly compiled artifact are *staged* (loaded,
fingerprint-verified, warmed, shadow-scored on mirrored traffic), then
*promoted* — but only if the shadow report clears every quality gate —
via an atomic engine-pointer flip performed while the service's batcher
worker is excluded from the model.  Anything that goes wrong at any
point (a gate failure, an injected fault, a crash mid-publish) triggers
an automatic :meth:`rollback` that restores the previous engine pointer
first and books a reason code surfaced through ``/v1/metrics``.

Durability discipline matches the persistence layer's (PR 2): the
candidate's bytes are published into the active deployment directory
through :func:`~repro.core.persistence.atomic_directory`, so a crash
mid-publish leaves the active directory byte-identical to the pre-swap
deployment and the in-memory pointer still on the old engine.

In-flight requests are never harmed: the flip happens under the
service's exclusive model lock, which the batcher worker also holds
around every ``link_batch`` call — a batch either completes entirely on
the old engine or starts entirely on the new one.  The linker's
``swap_engine`` replaces (not clears) its encoding caches, so a stale
encoding computed against the old weights can never be served under the
new fingerprint.

Fault probe sites:

* ``lifecycle.promote`` — hit once at promotion entry and once inside
  the staging block of the artifact publish; ``FaultSpec(after=1)``
  therefore simulates a crash mid-publish.
* ``lifecycle.rollback`` — hit *after* the engine pointer has been
  restored, so even a fault injected during rollback cannot leave the
  candidate serving.
"""

from __future__ import annotations

import dataclasses
import shutil
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.core.config import LifecycleConfig
from repro.core.linker import LinkResult, NeuralConceptLinker
from repro.utils.errors import ReproError
from repro.utils.faults import probe
from repro.utils.logging import get_logger

LOGGER = get_logger("lifecycle.swap")


class LifecycleError(ReproError, RuntimeError):
    """An invalid lifecycle state transition (stage while staged, …)."""


class ArtifactSwapper:
    """Blue/green candidate manager around one :class:`LinkingService`.

    States: ``idle`` → (:meth:`stage`) → ``shadowing`` →
    (:meth:`promote`) → ``idle``, with :meth:`rollback` returning to
    ``idle`` from anywhere.  One previous deployment is retained after
    a successful promote for one-deep manual rollback.
    """

    def __init__(
        self,
        service: Any,
        config: Optional[LifecycleConfig] = None,
        active_dir: Optional[Path] = None,
    ) -> None:
        self.service = service
        self.config = config if config is not None else LifecycleConfig()
        self.active_dir = Path(active_dir) if active_dir is not None else None
        self._lock = threading.RLock()
        self._state = "idle"
        self._shadow: Optional[Any] = None
        self._candidate_model: Optional[Any] = None
        self._candidate_engine: Optional[Any] = None
        self._candidate_linker: Optional[NeuralConceptLinker] = None
        self._candidate_dir: Optional[Path] = None
        self._previous: Optional[Tuple[Any, Any]] = None
        self._promotions = 0
        self._rollbacks = 0
        self._rollback_reasons: Dict[str, int] = {}
        self._last_rollback_reason: Optional[str] = None
        self._last_report: Optional[Dict[str, Any]] = None

    # -- state --------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def shadow(self) -> Optional[Any]:
        with self._lock:
            return self._shadow

    # -- staging ------------------------------------------------------------

    def stage(
        self, model: Any, artifact_dir: Path, warm: bool = True
    ) -> Dict[str, Any]:
        """Load + verify a candidate and start shadow-scoring it.

        The artifact is checksum-verified (manifest *and* per-index
        header hashes) and fingerprint-checked against ``model`` before
        any engine is built; a candidate linker is constructed from the
        primary's knowledge base, word vectors, and config so Phase I
        behaviour differs only by the artifact contents.
        """
        from repro.engine.compile import load_artifact
        from repro.engine.shards import ShardedConceptEngine
        from repro.lifecycle.shadow import ShadowScorer

        with self._lock:
            if self._state != "idle":
                raise LifecycleError(
                    f"cannot stage a candidate while {self._state}; promote "
                    "or roll back the current one first"
                )
            self._state = "staging"
        # The heavy lifting (artifact load + verify, engine build, cache
        # warm) runs outside self._lock so the batcher worker's mirror()
        # calls — made while it holds the service's model lock — never
        # stall live traffic behind a staging candidate.
        try:
            primary = self.service.linker
            candidate_dir = Path(artifact_dir)
            artifact = load_artifact(candidate_dir, model=model, verify=True)
            engine = ShardedConceptEngine(
                model,
                primary.ontology,
                artifact,
                retrieval=primary.config.retrieval,
            )
            linker = NeuralConceptLinker(
                model,
                primary.ontology,
                dataclasses.replace(
                    primary.config, artifact_dir=str(candidate_dir)
                ),
                kb=primary._kb,
                word_vectors=primary._word_vectors,
                engine=engine,
            )
            if warm:
                linker.warm_cache()
            shadow = ShadowScorer(
                linker,
                metrics=self.service.metrics,
                tracer=self.service.tracer,
                queue_capacity=self.config.shadow_queue_capacity,
                sample_every=self.config.shadow_sample_every,
            )
        except BaseException:
            with self._lock:
                self._state = "idle"
            raise
        with self._lock:
            self._shadow = shadow
            self._candidate_model = model
            self._candidate_engine = engine
            self._candidate_linker = linker
            self._candidate_dir = candidate_dir
            self._state = "shadowing"
        LOGGER.info(
            "candidate staged from %s (fingerprint %s)",
            candidate_dir,
            engine.fingerprint[:12],
        )
        return self.stats()

    def mirror(self, result: LinkResult) -> None:
        """Mirror one primary result onto the shadowing candidate."""
        with self._lock:
            shadow = self._shadow
            if self._state != "shadowing" or shadow is None:
                return
        top = result.ranked[0] if result.ranked else None
        shadow.submit(
            query=result.query,
            k=len(result.ranked) or None,
            primary_top_cid=top.cid if top is not None else None,
            primary_log_prob=top.log_prob if top is not None else float("-inf"),
            primary_seconds=result.timing.total(),
        )

    # -- gates --------------------------------------------------------------

    def gate_failures(self, report: Dict[str, Any]) -> list:
        """Reason codes for every quality gate ``report`` fails."""
        failures = []
        if report["samples"] < self.config.min_shadow_samples:
            failures.append("gate:samples")
        if report["agreement"] < self.config.min_agreement:
            failures.append("gate:agreement")
        if -report["mean_log_prob_delta"] > self.config.max_log_prob_drop:
            failures.append("gate:log_prob")
        if report["latency_ratio"] > self.config.max_latency_ratio:
            failures.append("gate:latency")
        return failures

    # -- promotion ----------------------------------------------------------

    def promote(self, force: bool = False) -> Dict[str, Any]:
        """Flip to the candidate if (unless ``force``) every gate passes.

        On any failure — gate, injected fault, publish error — the
        previous engine keeps serving and the candidate is discarded
        with a reason code.  Returns the promotion report either way.
        """
        with self._lock:
            if self._state != "shadowing" or self._candidate_linker is None:
                raise LifecycleError("no staged candidate to promote")
            self._state = "promoting"
        try:
            probe("lifecycle.promote")
            shadow = self._shadow
            assert shadow is not None
            shadow.drain()
            report = shadow.report()
            failures = [] if force else self.gate_failures(report)
            if failures:
                self.rollback(failures[0], report=report)
                return {
                    "promoted": False,
                    "reason": failures[0],
                    "gate_failures": failures,
                    "shadow": report,
                }
            shadow.close()
            previous_fingerprint = self.service.linker.model_fingerprint
            if self.active_dir is not None:
                self._publish(self._candidate_dir, self.active_dir)
            # The flip: exclusive() holds the same lock the batcher
            # worker takes around link_batch, so no batch straddles it.
            with self.service.exclusive():
                previous = self.service.linker.swap_engine(
                    self._candidate_model,
                    self._candidate_engine,
                    artifact_dir=(
                        self.active_dir
                        if self.active_dir is not None
                        else self._candidate_dir
                    ),
                )
            with self._lock:
                # Keep one generation for manual rollback.
                self._previous = previous
                self._promotions += 1
                new_fingerprint = self._candidate_engine.fingerprint
                self._shadow = None
                self._candidate_model = None
                self._candidate_engine = None
                self._candidate_linker = None
                self._candidate_dir = None
                self._state = "idle"
                self._last_report = report
            self.service.metrics.counter("lifecycle_promotions").inc()
            LOGGER.info(
                "promoted candidate %s (was %s)",
                new_fingerprint[:12],
                previous_fingerprint[:12],
            )
            return {
                "promoted": True,
                "reason": "ok",
                "gate_failures": [],
                "shadow": report,
                "fingerprint": new_fingerprint,
                "previous_fingerprint": previous_fingerprint,
            }
        except Exception as error:  # noqa: BLE001 - auto-rollback boundary
            reason = f"fault:{type(error).__name__}"
            self.rollback(reason)
            LOGGER.error("promotion failed, rolled back: %s", error)
            return {
                "promoted": False,
                "reason": reason,
                "gate_failures": [],
                "error": str(error),
            }

    def _publish(self, candidate_dir: Path, active_dir: Path) -> None:
        """Copy the candidate's bytes over the active deployment atomically.

        Runs inside :func:`atomic_directory`: an exception (including
        the second ``lifecycle.promote`` probe hit, i.e. a simulated
        crash mid-publish) removes the staging directory and leaves
        ``active_dir`` byte-identical.
        """
        from repro.core.persistence import atomic_directory

        assert candidate_dir is not None
        with atomic_directory(active_dir) as staging:
            for path in sorted(candidate_dir.iterdir()):
                if path.is_file():
                    shutil.copy2(path, staging / path.name)
            probe("lifecycle.promote")

    # -- rollback -----------------------------------------------------------

    def rollback(
        self, reason: str, report: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """Discard the candidate (from any state) and book ``reason``.

        Restores the engine pointer *first* if a promote had already
        flipped it (it cannot have, on the automatic path — the flip is
        the last fallible step — but manual post-promote rollback uses
        the retained previous deployment), then fires the
        ``lifecycle.rollback`` probe, then tears the candidate down.
        """
        with self._lock:
            had_candidate = self._candidate_linker is not None
            previous = self._previous
            if not had_candidate and previous is None:
                raise LifecycleError("nothing to roll back")
        restored = False
        if not had_candidate:
            # Post-promote rollback: re-install the retained previous
            # (model, engine) generation.  exclusive() is taken while
            # NOT holding self._lock — the batcher worker acquires the
            # model lock first and then (via mirror) this swapper's
            # lock, so nesting them the other way would deadlock.
            previous_model, previous_engine = previous
            with self.service.exclusive():
                self.service.linker.swap_engine(previous_model, previous_engine)
            restored = True
        with self._lock:
            if restored:
                self._previous = None
            probe("lifecycle.rollback")
            shadow = self._shadow
            self._shadow = None
            self._candidate_model = None
            self._candidate_engine = None
            self._candidate_linker = None
            self._candidate_dir = None
            self._state = "idle"
            self._rollbacks += 1
            self._rollback_reasons[reason] = (
                self._rollback_reasons.get(reason, 0) + 1
            )
            self._last_rollback_reason = reason
            if report is not None:
                self._last_report = report
        if shadow is not None:
            shadow.close()
        self.service.metrics.counter("lifecycle_rollbacks").inc()
        self.service.metrics.counter(f"lifecycle_rollback.{reason}").inc()
        LOGGER.warning("lifecycle rollback: %s", reason)
        return {"rolled_back": True, "reason": reason, "restored": restored}

    # -- teardown / stats ---------------------------------------------------

    def close(self) -> None:
        """Release the candidate (if any) without booking a rollback."""
        with self._lock:
            shadow = self._shadow
            self._shadow = None
            self._candidate_model = None
            self._candidate_engine = None
            self._candidate_linker = None
            self._candidate_dir = None
            self._state = "idle"
        if shadow is not None:
            shadow.close()

    def stats(self) -> Dict[str, Any]:
        """JSON-ready state + reason codes for ``/v1/metrics``."""
        with self._lock:
            shadow_report = (
                self._shadow.report() if self._shadow is not None else None
            )
            return {
                "state": self._state,
                "active_fingerprint": self.service.linker.model_fingerprint,
                "candidate_fingerprint": (
                    self._candidate_engine.fingerprint
                    if self._candidate_engine is not None
                    else None
                ),
                "candidate_dir": (
                    str(self._candidate_dir)
                    if self._candidate_dir is not None
                    else None
                ),
                "has_previous": self._previous is not None,
                "promotions": self._promotions,
                "rollbacks": self._rollbacks,
                "rollback_reasons": dict(self._rollback_reasons),
                "last_rollback_reason": self._last_rollback_reason,
                "shadow": shadow_report,
                "last_report": self._last_report,
            }
