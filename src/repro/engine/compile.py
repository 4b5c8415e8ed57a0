"""Offline concept compilation: the ``repro compile`` step.

A trained COM-AID pipeline still pays per-concept work online: Phase I
scans a TF-IDF index built at process start, and Phase II runs the
concept encoder (and the β ancestor encoders) for every candidate the
LRU caches have not seen.  Compilation runs all of that exactly once,
offline, and freezes the results into a versioned, checksummed
**concept artifact**:

.. code-block:: text

    <dir>/
      artifact.json     format, model fingerprint, Phase-I documents +
                        global TF-IDF statistics, concept order, and
                        the slab directory (per-array dtype/shape/offset)
      slab.bin          one contiguous, 64-byte-aligned binary slab:
                        final_h (N,d), final_c (N,d), concatenated
                        per-word encoder states + offsets, word ids,
                        and the Def.-4.1 structure memories (N, beta, d)
                        (absent for the COM-AID⁻c/⁻wc ablations)
      manifest.json     per-file sha256/byte sizes (atomic-persistence
                        format shared with the pipeline manifest)

The slab layout (format 3) exists for the multi-process serving tier:
``load_artifact(..., mmap=True)`` maps ``slab.bin`` read-only with
``np.memmap`` after verifying its checksum, so N forked worker
processes mapping the same artifact share one copy of the encodings
through the page cache — zero copies, no pickling of model state.
Format 3 is the only format this build reads: older artifacts (the
pre-slab ``encodings.npz`` layout) are refused with a
:class:`DataError` asking for a ``repro compile`` rerun.

The artifact is written through :func:`repro.core.persistence.atomic_directory`,
so a crash mid-compile never corrupts an existing artifact, and
:func:`verify_artifact` (or ``load_artifact(verify=True)``) proves a
directory complete and uncorrupted before it is put behind traffic.
Loading checks the **model fingerprint** — a SHA-256 over the model's
parameter tensors plus its architecture config — so an artifact can
never be served against weights other than the ones it was compiled
from (stale-artifact bugs surface as a :class:`DataError`, not as
silently wrong rankings).

Equivalence: the stored encodings are produced by the very same
``encode_concept`` / ``structural_context`` calls the online linker
would make, so a linker backed by the artifact returns bit-identical
concept representations — the engine equivalence suite rests on
this.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.candidates import concept_documents
from repro.core.comaid import ComAid, ConceptEncoding
from repro.kb.knowledge_base import KnowledgeBase
from repro.obs import trace
from repro.ontology.ontology import Ontology
from repro.ontology.paths import structural_context
from repro.retrieval.ann import DenseIndex
from repro.retrieval.inverted import InvertedIndex
from repro.text.tfidf import CorpusStats, TfIdfIndex
from repro.utils.errors import DataError
from repro.utils.faults import probe
from repro.utils.logging import get_logger

PathLike = Union[str, Path]

logger = get_logger("engine.compile")

#: Artifact directory format version (bumped on layout changes): one
#: contiguous aligned raw slab (``slab.bin``) that can be memory-mapped
#: read-only and shared zero-copy across processes, plus the optional
#: precompiled retrieval indexes (``index_sparse.npz`` /
#: ``index_dense.npz``, pinned by the header's ``retrieval`` section).
ARTIFACT_FORMAT = 3

#: Formats this build can load.
SUPPORTED_FORMATS = (3,)

ARTIFACT_FILE = "artifact.json"
SLAB_FILE = "slab.bin"
SPARSE_INDEX_FILE = "index_sparse.npz"
DENSE_INDEX_FILE = "index_dense.npz"

#: Byte alignment for every array in the format-3 slab.  64 covers the
#: widest vector registers (AVX-512) and cache lines, so mapped arrays
#: behave exactly like freshly allocated ones for BLAS kernels.
SLAB_ALIGN = 64

#: What ``compile_artifact(index=...)`` accepts.
INDEX_CHOICES = ("none", "sparse", "dense", "both")

#: Files a complete artifact must contain (the retrieval indexes are
#: optional).
REQUIRED_FILES = (ARTIFACT_FILE, SLAB_FILE)


def _sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_slab(path: Path, arrays: Dict[str, np.ndarray]) -> Dict[str, Any]:
    """Write ``arrays`` as one contiguous aligned binary slab.

    Each array is laid out C-contiguous at a :data:`SLAB_ALIGN`-aligned
    offset (zero padding between arrays).  Returns the header's
    ``slab`` section: file name, total bytes, alignment, per-array
    ``{dtype, shape, offset}`` directory, and the slab's sha256 — the
    checksum a memory-mapping loader re-verifies at map time.
    """
    entries: Dict[str, Dict[str, Any]] = {}
    offset = 0
    with path.open("wb") as handle:
        for name, array in arrays.items():
            contiguous = np.ascontiguousarray(array)
            padding = (-offset) % SLAB_ALIGN
            if padding:
                handle.write(b"\0" * padding)
                offset += padding
            entries[name] = {
                "dtype": contiguous.dtype.str,
                "shape": [int(extent) for extent in contiguous.shape],
                "offset": offset,
            }
            data = contiguous.tobytes()
            handle.write(data)
            offset += len(data)
    return {
        "file": SLAB_FILE,
        "nbytes": offset,
        "align": SLAB_ALIGN,
        "arrays": entries,
        "sha256": _sha256_of(path),
    }


def _load_slab(
    source: Path, slab_meta: Dict[str, Any], mmap: bool, check: bool
) -> Dict[str, np.ndarray]:
    """Materialise the format-3 slab's arrays.

    With ``mmap`` the file is mapped read-only (``np.memmap``) and
    every array is a zero-copy view into the mapping — N processes
    mapping the same artifact share one physical copy through the page
    cache.  Without it, arrays are independent in-memory copies.
    ``check`` re-hashes the file
    against the header's sha256 first — the map-time verification that
    turns a truncated or bit-flipped slab into a :class:`DataError`
    naming the file instead of silently wrong scores.
    """
    try:
        name = str(slab_meta["file"])
        expected_bytes = int(slab_meta["nbytes"])
        expected_sha = str(slab_meta["sha256"])
        directory = dict(slab_meta["arrays"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"artifact {source} has a malformed slab header entry: {exc}"
        ) from exc
    path = source / name
    if not path.exists():
        raise DataError(
            f"artifact {source} declares slab {name} but the file is missing"
        )
    actual_bytes = path.stat().st_size
    if actual_bytes != expected_bytes:
        raise DataError(
            f"artifact slab {path} is truncated or padded: {actual_bytes} "
            f"bytes on disk, {expected_bytes} declared"
        )
    if check:
        actual_sha = _sha256_of(path)
        if actual_sha != expected_sha:
            raise DataError(
                f"artifact slab {path} is corrupt: sha256 {actual_sha} != "
                f"declared {expected_sha}"
            )
    if mmap:
        raw: np.ndarray = np.memmap(path, dtype=np.uint8, mode="r")
    else:
        raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    arrays: Dict[str, np.ndarray] = {}
    for array_name, entry in directory.items():
        try:
            dtype = np.dtype(str(entry["dtype"]))
            shape = tuple(int(extent) for extent in entry["shape"])
            offset = int(entry["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"artifact slab entry {array_name!r} in {source} is "
                f"malformed: {exc}"
            ) from exc
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if offset < 0 or offset + nbytes > expected_bytes:
            raise DataError(
                f"artifact slab entry {array_name!r} in {path} points "
                f"outside the slab ({offset}+{nbytes} > {expected_bytes})"
            )
        view = raw[offset : offset + nbytes].view(dtype).reshape(shape)
        arrays[array_name] = view if mmap else view.copy()
    return arrays


def model_fingerprint(model: ComAid) -> Dict[str, Any]:
    """Identity of the weights an artifact was compiled from.

    SHA-256 over every parameter tensor (name, shape, raw bytes) plus
    the architecture config and vocabulary size.  Two models agree on
    the fingerprint iff they would produce the same encodings.
    """
    digest = hashlib.sha256()
    for name, parameter in sorted(model.named_parameters()):
        digest.update(name.encode("utf-8"))
        array = np.ascontiguousarray(parameter.value)
        digest.update(str(array.shape).encode("utf-8"))
        digest.update(array.tobytes())
    return {
        "params_sha256": digest.hexdigest(),
        "config": dataclasses.asdict(model.config),
        "vocab_size": len(model.vocab),
    }


@dataclass
class ConceptArtifact:
    """An in-memory view of a compiled concept artifact.

    Arrays are the slabs exactly as stored; per-concept accessors
    return zero-copy views into them.
    """

    directory: Path
    format: int
    fingerprint: Dict[str, Any]
    metadata: Dict[str, Any]
    cids: Tuple[str, ...]
    final_h: np.ndarray
    final_c: np.ndarray
    states: np.ndarray
    state_offsets: np.ndarray
    word_ids: np.ndarray
    word_offsets: np.ndarray
    structure: Optional[np.ndarray]
    documents: List[Tuple[str, List[str]]]
    corpus_stats: CorpusStats
    index_aliases: bool
    #: Precompiled retrieval indexes (compiled with ``--index``);
    #: ``None`` when the artifact was compiled without them.
    sparse_index: Optional[InvertedIndex] = None
    dense_index: Optional[DenseIndex] = None
    #: The header's ``retrieval`` section (per-index checksums and
    #: training parameters), empty for artifacts without indexes.
    retrieval_meta: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Whether the slab arrays are read-only views into an mmap'd file
    #: (loaded with ``mmap=True``) rather than private in-memory copies.
    mmap: bool = False

    def __post_init__(self) -> None:
        self._positions = {cid: i for i, cid in enumerate(self.cids)}

    def __len__(self) -> int:
        return len(self.cids)

    def __contains__(self, cid: str) -> bool:
        return cid in self._positions

    def position_of(self, cid: str) -> int:
        """Global position of ``cid`` in the compiled concept order.

        This order is the Phase-I index's insertion order, i.e. the
        tie-break its TF-IDF top-k uses.
        """
        try:
            return self._positions[cid]
        except KeyError:
            raise DataError(f"concept {cid!r} is not in the compiled artifact")

    def encoding_of(self, cid: str) -> ConceptEncoding:
        """The precompiled :class:`ConceptEncoding` for ``cid`` (views)."""
        position = self.position_of(cid)
        lo, hi = self.state_offsets[position], self.state_offsets[position + 1]
        wlo, whi = self.word_offsets[position], self.word_offsets[position + 1]
        states = self.states[lo:hi]
        return ConceptEncoding(
            word_ids=tuple(int(w) for w in self.word_ids[wlo:whi]),
            states=states,
            final_h=self.final_h[position],
            final_c=self.final_c[position],
            caches=None,
        )

    def structure_memory_of(self, cid: str) -> Optional[np.ndarray]:
        """The ``(beta, dim)`` Def.-4.1 structure memory, or ``None``."""
        if self.structure is None:
            return None
        return self.structure[self.position_of(cid)]

    def check_model(self, model: ComAid) -> None:
        """Raise :class:`DataError` unless ``model`` matches the artifact."""
        current = model_fingerprint(model)
        if current["params_sha256"] != self.fingerprint.get("params_sha256"):
            raise DataError(
                f"artifact {self.directory} was compiled from different "
                "model weights (fingerprint mismatch); re-run `repro "
                "compile` after retraining"
            )


def compile_artifact(
    directory: PathLike,
    model: ComAid,
    ontology: Ontology,
    kb: Optional[KnowledgeBase] = None,
    index_aliases: bool = True,
    restrict_to: Optional[Sequence[str]] = None,
    metadata: Optional[Dict[str, Any]] = None,
    index: str = "none",
    index_seed: int = 0,
) -> Path:
    """Encode every fine-grained concept once and freeze the results.

    Runs the concept encoder over each indexed concept (the ``h_c``
    final states plus the per-word text-attention memories), builds the
    Def.-4.1 structure memories along each concept's β-ancestor path,
    tokenises the Phase-I index documents, and writes everything —
    with global TF-IDF statistics and a model fingerprint — into
    ``directory`` crash-safely.  Returns the artifact path.

    ``index`` additionally compiles the sublinear retrieval indexes
    (:mod:`repro.retrieval`) into the artifact: ``"sparse"`` freezes
    the TF-IDF postings into the array-backed inverted index,
    ``"dense"`` k-means-trains the IVF ANN index over the concept
    encoder final states (seeded by ``index_seed``), ``"both"`` does
    both, and ``"none"`` (the default) compiles no index — non-exact
    retrieval modes then build/refuse at engine start.  Each
    compiled index file carries its own sha256 in the header's
    ``retrieval`` section, verified again at load.
    """
    if index not in INDEX_CHOICES:
        raise DataError(
            f"index must be one of {INDEX_CHOICES}, got {index!r}"
        )
    documents = concept_documents(
        ontology, kb=kb, index_aliases=index_aliases, restrict_to=restrict_to
    )
    if not documents:
        raise DataError("no fine-grained concepts to compile")
    fitted = TfIdfIndex().fit(documents)
    stats = fitted.stats()
    beta = model.config.beta
    use_structure = model.config.use_structure_attention
    dim = model.config.dim

    cids: List[str] = []
    final_h_rows: List[np.ndarray] = []
    final_c_rows: List[np.ndarray] = []
    state_blocks: List[np.ndarray] = []
    word_blocks: List[List[int]] = []
    structure_blocks: List[np.ndarray] = []
    with trace.span("engine.compile", concepts=len(documents)):
        for cid, _ in documents:
            probe("engine.compile.concept")
            concept = ontology.get(cid)
            word_ids = model.words_to_ids(list(concept.words))
            encoding = model.encode_concept(word_ids, keep_caches=False)
            cids.append(cid)
            final_h_rows.append(encoding.final_h)
            final_c_rows.append(encoding.final_c)
            state_blocks.append(encoding.states)
            word_blocks.append(list(word_ids))
            if use_structure:
                path = structural_context(ontology, cid, beta)
                ancestors = []
                for ancestor in path[1:]:
                    ids = model.words_to_ids(list(ancestor.words))
                    ancestors.append(
                        model.encode_concept(ids, keep_caches=False)
                    )
                if len(ancestors) != beta:
                    raise DataError(
                        f"concept {cid!r} yielded {len(ancestors)} ancestors "
                        f"for beta={beta}"
                    )
                structure_blocks.append(
                    np.vstack([a.final_h for a in ancestors])
                )

    state_offsets = np.zeros(len(cids) + 1, dtype=np.int64)
    np.cumsum([block.shape[0] for block in state_blocks], out=state_offsets[1:])
    word_offsets = np.zeros(len(cids) + 1, dtype=np.int64)
    np.cumsum([len(block) for block in word_blocks], out=word_offsets[1:])

    header = {
        "format": ARTIFACT_FORMAT,
        "fingerprint": model_fingerprint(model),
        "concepts": len(cids),
        "dim": dim,
        "beta": beta,
        "index": {
            "order": cids,
            "index_aliases": bool(index_aliases),
            "stats": stats.to_dict(),
            "documents": {cid: list(tokens) for cid, tokens in documents},
        },
    }

    from repro.core.persistence import atomic_directory, write_manifest

    target = Path(directory)
    with atomic_directory(target) as staging:
        retrieval_meta: Dict[str, Any] = {}
        if index in ("sparse", "both"):
            probe("engine.compile.write.index_sparse.npz")
            with trace.span("engine.compile.index", kind="sparse"):
                sparse_arrays = InvertedIndex.from_tfidf(fitted).to_arrays()
            np.savez_compressed(
                staging / SPARSE_INDEX_FILE, **sparse_arrays
            )
            retrieval_meta["sparse"] = {
                "file": SPARSE_INDEX_FILE,
                "sha256": _sha256_of(staging / SPARSE_INDEX_FILE),
            }
        if index in ("dense", "both"):
            probe("engine.compile.write.index_dense.npz")
            with trace.span("engine.compile.index", kind="dense"):
                dense = DenseIndex.train(
                    np.stack(final_h_rows), seed=index_seed
                )
            np.savez_compressed(
                staging / DENSE_INDEX_FILE, **dense.to_arrays()
            )
            retrieval_meta["dense"] = {
                "file": DENSE_INDEX_FILE,
                "sha256": _sha256_of(staging / DENSE_INDEX_FILE),
                "n_clusters": dense.n_clusters,
                "seed": index_seed,
            }
        if retrieval_meta:
            header["retrieval"] = retrieval_meta
        probe("engine.compile.write.slab.bin")
        slab_arrays: Dict[str, np.ndarray] = {
            "final_h": np.stack(final_h_rows),
            "final_c": np.stack(final_c_rows),
            "states": (
                np.concatenate(state_blocks)
                if state_blocks
                else np.zeros((0, dim))
            ),
            "state_offsets": state_offsets,
            "word_ids": np.asarray(
                [wid for block in word_blocks for wid in block],
                dtype=np.int64,
            ),
            "word_offsets": word_offsets,
        }
        if use_structure:
            slab_arrays["structure"] = np.stack(structure_blocks)
        header["slab"] = _write_slab(staging / SLAB_FILE, slab_arrays)
        probe("engine.compile.write.artifact.json")
        (staging / ARTIFACT_FILE).write_text(
            json.dumps(header, indent=2, sort_keys=True), encoding="utf-8"
        )
        write_manifest(staging, ARTIFACT_FORMAT, metadata)
    logger.info(
        "compiled %d concepts (%d encoder states) into %s",
        len(cids),
        int(state_offsets[-1]),
        target,
    )
    return target


def _read_header(source: Path) -> Dict[str, Any]:
    """Parse ``artifact.json`` and refuse formats this build cannot read."""
    header_path = source / ARTIFACT_FILE
    if not header_path.exists():
        raise DataError(f"{source} does not look like a compiled artifact")
    try:
        header = json.loads(header_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(
            f"artifact file {header_path} is unreadable or not valid JSON: "
            f"{exc}"
        ) from exc
    fmt = header.get("format") if isinstance(header, dict) else None
    if fmt not in SUPPORTED_FORMATS:
        raise DataError(
            f"artifact {source} has format {fmt!r}; this build reads "
            f"formats {SUPPORTED_FORMATS} — re-run `repro compile` to "
            "rebuild it"
        )
    return header


def _checked_index_path(
    source: Path, kind: str, entry: Any, verify: bool
) -> Path:
    """The retrieval index file a header entry names, proven intact.

    The ``retrieval`` header entry pins each index file's sha256
    independently of the manifest, so a swapped or regenerated index
    can never be served against the artifact it did not come from.
    """
    try:
        name = str(entry["file"])
        expected = str(entry["sha256"])
    except (KeyError, TypeError) as exc:
        raise DataError(
            f"artifact {source} has a malformed retrieval entry for "
            f"{kind!r}: {exc}"
        ) from exc
    path = source / name
    if not path.exists():
        raise DataError(
            f"artifact {source} declares retrieval index {name} but the "
            "file is missing"
        )
    if verify:
        actual = _sha256_of(path)
        if actual != expected:
            raise DataError(
                f"retrieval index {path} is corrupt: sha256 {actual} != "
                f"declared {expected}"
            )
    return path


def _load_index_arrays(path: Path) -> Dict[str, np.ndarray]:
    """Read one compiled retrieval index file."""
    try:
        with np.load(path) as archive:
            return {key: archive[key] for key in archive.files}
    except (OSError, ValueError) as exc:
        raise DataError(
            f"retrieval index {path} is corrupt or unreadable: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def verify_artifact(directory: PathLike) -> Dict[str, Any]:
    """Prove an artifact directory is complete and uncorrupted.

    Manifest-driven byte-size and SHA-256 checks over every listed
    file, then every *header-pinned* payload is re-hashed against the
    header's own sha256: the slab and — for artifacts with compiled
    retrieval indexes — each index file.  The header pins those
    independently of the manifest, so even a consistently regenerated
    manifest cannot smuggle a swapped slab or index past verification.
    Returns the parsed manifest, raises :class:`DataError` naming the
    first offending file otherwise (or asking for ``repro compile``
    when the artifact predates format 3).
    """
    from repro.core.persistence import verify_manifest_dir

    source = Path(directory)
    header = _read_header(source)
    manifest = verify_manifest_dir(source, REQUIRED_FILES, kind="artifact")
    if "slab" not in header:
        raise DataError(
            f"artifact file {source / ARTIFACT_FILE} is missing fields: "
            "'slab'"
        )
    # Re-hash the slab against the header's pin (see docstring); this is
    # also exactly the map-time check the mmap loader runs.
    _load_slab(source, header["slab"], mmap=True, check=True)
    for kind in sorted(header.get("retrieval") or {}):
        _checked_index_path(source, kind, header["retrieval"][kind], True)
    return manifest


def load_artifact(
    directory: PathLike,
    model: Optional[ComAid] = None,
    verify: bool = True,
    mmap: bool = False,
) -> ConceptArtifact:
    """Load a compiled concept artifact.

    With ``verify`` (the default) every file is checksummed against the
    manifest before deserialisation — a tampered or torn artifact
    raises :class:`DataError` naming the file.  Passing ``model``
    additionally checks the weight fingerprint, refusing to serve an
    artifact compiled from other weights.

    With ``mmap`` a format-3 artifact's slab is mapped read-only
    instead of copied into anonymous memory: every process mapping the
    same ``slab.bin`` shares one set of page-cache pages, which is what
    makes an N-worker process pool cost O(1) artifact memory.  The
    slab's header checksum is always proven before the map is served —
    by :func:`verify_artifact` when ``verify`` is on, or by a dedicated
    map-time re-hash when it is off.
    """
    source = Path(directory)
    if verify:
        verify_artifact(source)
    header_path = source / ARTIFACT_FILE
    header = _read_header(source)
    try:
        order = [str(cid) for cid in header["index"]["order"]]
        raw_documents = header["index"]["documents"]
        documents = [
            (cid, [str(token) for token in raw_documents[cid]])
            for cid in order
        ]
        stats = CorpusStats.from_dict(header["index"]["stats"])
        index_aliases = bool(header["index"]["index_aliases"])
        fingerprint = dict(header["fingerprint"])
    except (KeyError, TypeError) as exc:
        raise DataError(
            f"artifact file {header_path} is missing fields: {exc}"
        ) from exc
    try:
        slab_meta = header["slab"]
    except KeyError as exc:
        raise DataError(
            f"artifact file {header_path} is missing fields: {exc}"
        ) from exc
    # verify_artifact() above already re-hashed the slab; when the
    # caller opted out of verification the map-time check below is the
    # only thing standing between a torn slab and the engine.
    slab = _load_slab(source, slab_meta, mmap=mmap, check=not verify)
    try:
        final_h = slab["final_h"]
        final_c = slab["final_c"]
        states = slab["states"]
        state_offsets = slab["state_offsets"]
        word_ids = slab["word_ids"]
        word_offsets = slab["word_offsets"]
    except KeyError as exc:
        raise DataError(f"artifact {source} slab is missing array {exc}") from exc
    retrieval_meta = dict(header.get("retrieval") or {})
    sparse_index: Optional[InvertedIndex] = None
    dense_index: Optional[DenseIndex] = None
    # When verify=True the per-index checksums were already proven by
    # verify_artifact() above; skip re-hashing the same bytes here.
    if "sparse" in retrieval_meta:
        arrays = _load_index_arrays(
            _checked_index_path(source, "sparse", retrieval_meta["sparse"], False)
        )
        sparse_index = InvertedIndex.from_arrays(
            arrays, keys=list(order), stats=stats
        )
    if "dense" in retrieval_meta:
        arrays = _load_index_arrays(
            _checked_index_path(source, "dense", retrieval_meta["dense"], False)
        )
        dense_index = DenseIndex.from_arrays(arrays, vectors=final_h)
    manifest_metadata: Dict[str, Any] = {}
    from repro.core.persistence import load_manifest

    manifest = load_manifest(source)
    if manifest is not None:
        manifest_metadata = dict(manifest.get("metadata") or {})
    artifact = ConceptArtifact(
        directory=source,
        format=int(header["format"]),
        fingerprint=fingerprint,
        metadata=manifest_metadata,
        cids=tuple(order),
        final_h=final_h,
        final_c=final_c,
        states=states,
        state_offsets=state_offsets,
        word_ids=word_ids,
        word_offsets=word_offsets,
        structure=slab.get("structure"),
        documents=documents,
        corpus_stats=stats,
        index_aliases=index_aliases,
        sparse_index=sparse_index,
        dense_index=dense_index,
        retrieval_meta=retrieval_meta,
        mmap=mmap,
    )
    if len(artifact.cids) != final_h.shape[0]:
        raise DataError(
            f"artifact {source} is inconsistent: {len(artifact.cids)} "
            f"concepts listed, {final_h.shape[0]} encodings stored"
        )
    if model is not None:
        artifact.check_model(model)
    return artifact
