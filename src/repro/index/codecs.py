"""Quantized embedding storage codecs for the approximate index layer.

An index shard holds one ``(num_entities, dim)`` embedding matrix.  At the
million-entity scale that matrix is the dominant memory cost, so the
:mod:`repro.index` subsystem stores it behind a small *storage* abstraction
that can trade precision for bytes:

=========  =================================  ==========================
codec      persisted arrays (per shard)       bytes / component
=========  =================================  ==========================
float64    the raw matrix (reference)         8
float16    half-precision matrix              2
int8       codes + per-entity scale/zero      1 (+16 per entity)
=========  =================================  ==========================

``int8`` uses an affine per-entity (per-row) quantizer: each row is mapped
onto the signed byte range with its own ``scale`` and ``zero`` point, so a
row with a small dynamic range keeps small absolute error regardless of its
neighbours.  The worst-case per-component reconstruction error is
``scale / 2 = (row_max - row_min) / (2 * 255)``.

Every storage decodes back to float64 on access — :meth:`VectorStorage.take`
gathers and decodes only the requested rows, which is what makes quantized
matrices pair well with memory-mapped snapshots: the IVF re-scoring pass
touches ~``nprobe / num_cells`` of the KB per query, and only those pages
are ever read or decoded.

Codecs are looked up by name through :func:`storage_codec`; an unrecognised
name raises :class:`UnknownCodecError` with the known-codec list, which is
also the error a *newer* snapshot written with a codec this build does not
know produces at load time.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Type, Union

import numpy as np

#: Canonical codec names, in declaration order.
CODEC_FLOAT64 = "float64"
CODEC_FLOAT16 = "float16"
CODEC_INT8 = "int8"


class UnknownCodecError(ValueError):
    """A snapshot or build request named a codec this build does not know."""

    def __init__(self, codec: str) -> None:
        super().__init__(
            f"unknown embedding codec {codec!r}; known codecs: "
            f"{', '.join(sorted(CODECS))} (a snapshot written by a newer "
            f"build may use a codec this version cannot decode)"
        )
        self.codec = codec


class VectorStorage:
    """Base class: a decodable ``(num_entities, dim)`` embedding matrix.

    Subclasses implement :meth:`encode` / :meth:`from_arrays` plus the row
    accessors; all accessors return float64 arrays, so callers never see the
    underlying representation.
    """

    codec: str = ""

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Bytes held (or mapped) by the persisted arrays."""
        return sum(int(array.nbytes) for array in self.arrays().values())

    def take(self, rows: np.ndarray) -> np.ndarray:
        """Gather + decode the given row indices as float64."""
        raise NotImplementedError

    def block(self, start: int, stop: int) -> np.ndarray:
        """Decode a contiguous row slice as float64."""
        raise NotImplementedError

    def __getitem__(self, rows: slice) -> np.ndarray:
        """``storage[start:stop]`` decodes that block — storages slice like
        the matrix they encode, which is all the blocked scan asks of one."""
        start, stop, _ = rows.indices(len(self))
        return self.block(start, stop)

    def to_dense(self) -> np.ndarray:
        """Decode the whole matrix into one in-RAM float64 array."""
        return self.block(0, len(self))

    def arrays(self) -> Dict[str, np.ndarray]:
        """The persisted arrays, keyed by component name ('' = bare matrix)."""
        raise NotImplementedError

    @classmethod
    def encode(cls, matrix: np.ndarray) -> "VectorStorage":
        raise NotImplementedError

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "VectorStorage":
        raise NotImplementedError


class Float64Storage(VectorStorage):
    """Identity codec: the float64 reference matrix, possibly memory-mapped."""

    codec = CODEC_FLOAT64

    def __init__(self, matrix: np.ndarray) -> None:
        if matrix.ndim != 2:
            raise ValueError("expected a 2-D embedding matrix")
        # asarray keeps a memmap's pages lazy: float64 input is a zero-copy
        # view, so nothing is paged in until rows are actually read.
        self._matrix = np.asarray(matrix, dtype=np.float64)

    def __len__(self) -> int:
        return self._matrix.shape[0]

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def take(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(self._matrix[rows], dtype=np.float64)

    def block(self, start: int, stop: int) -> np.ndarray:
        return np.asarray(self._matrix[start:stop], dtype=np.float64)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {"": self._matrix}

    @classmethod
    def encode(cls, matrix: np.ndarray) -> "Float64Storage":
        return cls(np.asarray(matrix, dtype=np.float64))

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "Float64Storage":
        return cls(arrays[""])


class Float16Storage(VectorStorage):
    """Half-precision matrix: 4x smaller, ~3 decimal digits of mantissa."""

    codec = CODEC_FLOAT16

    def __init__(self, half: np.ndarray) -> None:
        if half.ndim != 2:
            raise ValueError("expected a 2-D embedding matrix")
        if half.dtype != np.float16:
            raise ValueError("Float16Storage expects a float16 matrix")
        self._half = half

    def __len__(self) -> int:
        return self._half.shape[0]

    @property
    def dim(self) -> int:
        return self._half.shape[1]

    def take(self, rows: np.ndarray) -> np.ndarray:
        return self._half[rows].astype(np.float64)

    def block(self, start: int, stop: int) -> np.ndarray:
        return self._half[start:stop].astype(np.float64)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {"half": self._half}

    @classmethod
    def encode(cls, matrix: np.ndarray) -> "Float16Storage":
        return cls(np.asarray(matrix, dtype=np.float16))

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "Float16Storage":
        return cls(np.asarray(arrays["half"], dtype=np.float16))


class Int8Storage(VectorStorage):
    """Affine per-entity int8 quantization: ``row ≈ (codes + 128) * scale + zero``.

    ``scale`` and ``zero`` are per-row float64 scalars; a constant row
    (``max == min``) gets ``scale = 0`` and decodes exactly.  Worst-case
    per-component error is ``scale / 2``.
    """

    codec = CODEC_INT8

    def __init__(self, codes: np.ndarray, scale: np.ndarray, zero: np.ndarray) -> None:
        if codes.ndim != 2:
            raise ValueError("expected a 2-D code matrix")
        if codes.dtype != np.int8:
            raise ValueError("Int8Storage expects int8 codes")
        if scale.shape != (codes.shape[0],) or zero.shape != (codes.shape[0],):
            raise ValueError("scale/zero must hold one value per entity row")
        self._codes = codes
        self._scale = np.asarray(scale, dtype=np.float64)
        self._zero = np.asarray(zero, dtype=np.float64)

    def __len__(self) -> int:
        return self._codes.shape[0]

    @property
    def dim(self) -> int:
        return self._codes.shape[1]

    def _decode(self, codes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        levels = codes.astype(np.float64) + 128.0
        return levels * self._scale[rows, None] + self._zero[rows, None]

    def take(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows)
        return self._decode(self._codes[rows], rows)

    def block(self, start: int, stop: int) -> np.ndarray:
        stop = min(stop, len(self))
        return self._decode(self._codes[start:stop], np.arange(start, stop))

    def arrays(self) -> Dict[str, np.ndarray]:
        return {"codes": self._codes, "scale": self._scale, "zero": self._zero}

    @classmethod
    def encode(cls, matrix: np.ndarray) -> "Int8Storage":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("expected a 2-D embedding matrix")
        row_min = matrix.min(axis=1) if matrix.size else np.zeros(len(matrix))
        row_max = matrix.max(axis=1) if matrix.size else np.zeros(len(matrix))
        scale = (row_max - row_min) / 255.0
        zero = row_min
        safe = np.where(scale > 0.0, scale, 1.0)
        levels = np.rint((matrix - zero[:, None]) / safe[:, None])
        levels[scale == 0.0] = 0.0
        codes = (np.clip(levels, 0.0, 255.0) - 128.0).astype(np.int8)
        return cls(codes, scale, zero)

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "Int8Storage":
        return cls(
            np.asarray(arrays["codes"], dtype=np.int8),
            np.asarray(arrays["scale"], dtype=np.float64),
            np.asarray(arrays["zero"], dtype=np.float64),
        )


#: Codec registry: name -> storage class.
CODECS: Dict[str, Type[VectorStorage]] = {
    CODEC_FLOAT64: Float64Storage,
    CODEC_FLOAT16: Float16Storage,
    CODEC_INT8: Int8Storage,
}


def storage_codec(codec: str) -> Type[VectorStorage]:
    """Resolve a codec name; raises :class:`UnknownCodecError` if unknown."""
    try:
        return CODECS[codec]
    except KeyError:
        raise UnknownCodecError(codec) from None


def encode_matrix(matrix: np.ndarray, codec: str) -> VectorStorage:
    """Encode a float64 matrix under the named codec."""
    return storage_codec(codec).encode(matrix)


def storage_from_arrays(
    arrays: Mapping[str, np.ndarray], codec: str
) -> VectorStorage:
    """Rehydrate a storage from its persisted (possibly memory-mapped) arrays."""
    return storage_codec(codec).from_arrays(arrays)


def as_storage(vectors: Union[np.ndarray, VectorStorage]) -> VectorStorage:
    """Wrap a raw matrix as float64 storage; pass existing storages through."""
    if isinstance(vectors, VectorStorage):
        return vectors
    return Float64Storage(np.asarray(vectors, dtype=np.float64))
