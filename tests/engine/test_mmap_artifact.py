"""The format-3 slab: mmap loads, back-compat, and corruption detection.

The slab replaced the compressed ``.npz`` pair so artifacts can be
*mapped* instead of copied: ``load_artifact(..., mmap=True)`` returns
read-only views over one ``np.memmap``, byte-identical to the copy
path.  Pre-slab formats 1–2 are refused with a :class:`DataError`
asking for ``repro compile``, and any torn or flipped slab byte is a
:class:`DataError` naming ``slab.bin`` before a single query runs.
"""

import json
import shutil

import numpy as np
import pytest

from repro.core.persistence import write_manifest
from repro.engine.compile import load_artifact, verify_artifact
from repro.utils.errors import DataError

from tests.engine.conftest import write_legacy_artifact

SLAB_ARRAYS = (
    "final_h",
    "final_c",
    "states",
    "state_offsets",
    "word_ids",
    "word_offsets",
)


class TestMmapLoad:
    def test_mmap_equals_copy_byte_for_byte(self, engine_stack):
        _, _, model, artifact_dir = engine_stack
        mapped = load_artifact(artifact_dir, model=model, mmap=True)
        copied = load_artifact(artifact_dir, model=model, mmap=False)
        assert mapped.mmap and not copied.mmap
        for name in SLAB_ARRAYS:
            left, right = getattr(mapped, name), getattr(copied, name)
            assert left.dtype == right.dtype
            np.testing.assert_array_equal(left, right)
        if copied.structure is not None:
            np.testing.assert_array_equal(mapped.structure, copied.structure)

    def test_mapped_arrays_are_read_only_memmap_views(self, engine_stack):
        _, _, _, artifact_dir = engine_stack
        mapped = load_artifact(artifact_dir, mmap=True)
        for name in SLAB_ARRAYS:
            array = getattr(mapped, name)
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[..., 0] = 0
            base = array
            while isinstance(base, np.ndarray) and base.base is not None:
                if isinstance(base, np.memmap):
                    break
                base = base.base
            assert isinstance(base, np.memmap)

    def test_copy_path_arrays_are_private_and_writable(self, engine_stack):
        _, _, _, artifact_dir = engine_stack
        copied = load_artifact(artifact_dir, mmap=False)
        for name in SLAB_ARRAYS:
            array = getattr(copied, name)
            assert array.flags.writeable
            assert array.flags.owndata or not isinstance(
                array.base, np.memmap
            )


class TestLegacyFormats:
    @pytest.mark.parametrize("fmt", [1, 2])
    @pytest.mark.parametrize("mmap", [False, True])
    def test_old_layout_is_refused_naming_repro_compile(
        self, fmt, mmap, engine_stack, tmp_path
    ):
        _, _, model, artifact_dir = engine_stack
        legacy = write_legacy_artifact(
            artifact_dir, tmp_path / f"format{fmt}", fmt
        )
        with pytest.raises(DataError, match="repro compile"):
            load_artifact(legacy, model=model, mmap=mmap)
        with pytest.raises(DataError, match="repro compile"):
            load_artifact(legacy, verify=False, mmap=mmap)

    def test_legacy_artifact_fails_verification(self, engine_stack, tmp_path):
        _, _, _, artifact_dir = engine_stack
        legacy = write_legacy_artifact(artifact_dir, tmp_path / "fmt2", 2)
        with pytest.raises(DataError, match="repro compile"):
            verify_artifact(legacy)


class TestSlabCorruption:
    def _clone(self, artifact_dir, tmp_path, name):
        clone = tmp_path / name
        shutil.copytree(artifact_dir, clone)
        return clone

    def test_truncated_slab_raises_naming_file(self, engine_stack, tmp_path):
        _, _, _, artifact_dir = engine_stack
        clone = self._clone(artifact_dir, tmp_path, "truncated")
        slab = clone / "slab.bin"
        with open(slab, "r+b") as handle:
            handle.truncate(slab.stat().st_size - 1)
        with pytest.raises(DataError, match="slab.bin"):
            verify_artifact(clone)
        with pytest.raises(DataError, match="slab.bin"):
            load_artifact(clone)
        # Even with verification off, the size check is unconditional:
        # a torn slab can never be mapped.
        with pytest.raises(DataError, match="slab.bin"):
            load_artifact(clone, verify=False, mmap=True)

    def test_bit_flip_detected_before_serving(self, engine_stack, tmp_path):
        _, _, _, artifact_dir = engine_stack
        clone = self._clone(artifact_dir, tmp_path, "flipped")
        slab = clone / "slab.bin"
        data = bytearray(slab.read_bytes())
        data[len(data) // 2] ^= 0x01
        slab.write_bytes(bytes(data))
        with pytest.raises(DataError, match="slab.bin"):
            verify_artifact(clone)
        with pytest.raises(DataError, match="slab.bin"):
            load_artifact(clone, mmap=True)

    def test_bit_flip_caught_by_header_even_with_manifest_rewritten(
        self, engine_stack, tmp_path
    ):
        # An attacker (or a buggy sync) that rewrites the manifest to
        # match the corrupt bytes still fails: the header's slab sha
        # pins the content independently of the manifest.
        _, _, _, artifact_dir = engine_stack
        clone = self._clone(artifact_dir, tmp_path, "flipped-manifest")
        slab = clone / "slab.bin"
        data = bytearray(slab.read_bytes())
        data[len(data) // 3] ^= 0x80
        slab.write_bytes(bytes(data))
        header = json.loads(
            (clone / "artifact.json").read_text(encoding="utf-8")
        )
        (clone / "manifest.json").unlink()
        write_manifest(clone, header["format"])
        with pytest.raises(DataError, match="slab.bin"):
            verify_artifact(clone)

    def test_header_slab_entry_out_of_bounds(self, engine_stack, tmp_path):
        _, _, _, artifact_dir = engine_stack
        clone = self._clone(artifact_dir, tmp_path, "bad-offset")
        header_path = clone / "artifact.json"
        header = json.loads(header_path.read_text(encoding="utf-8"))
        header["slab"]["arrays"]["final_h"]["offset"] = (
            header["slab"]["nbytes"]
        )
        header_path.write_text(
            json.dumps(header, indent=2, sort_keys=True), encoding="utf-8"
        )
        (clone / "manifest.json").unlink()
        write_manifest(clone, header["format"])
        with pytest.raises(DataError, match="slab"):
            load_artifact(clone, verify=False, mmap=True)
