"""Deterministic text embeddings.

The default embedder hashes a bag of lowercased tokens into a fixed number of
signed buckets and L2-normalizes the result.  It is order-insensitive, has no
model dependencies, and produces identical vectors for identical text across
processes, which the rest of the engine relies on for reproducibility.  Any
callable with the same signature can be swapped in.

A hashing embedding has a handful of non-zeros (about 14 of 2048 for a
query), so everything that keeps one holds it as a :class:`SparseVector`,
and stores that score many of them against one query keep them as
:class:`SparseRows`.

The cosine of a stored vector ``v`` with a dense query ``q`` is defined as
the products ``v.value[i] * q[v.index[i]]`` added left to right in entry
order, starting from ``+0.0``; :meth:`SparseRows.cosines` computes it for
every row with one ``np.bincount``, which adds each bin's weights in that
order.  A sum started at ``+0.0`` is never ``-0.0`` (``x + -x`` rounds to
``+0.0``), so adding a zero product leaves it unchanged: the cosine of two
stored vectors adds the same nonzero products, those of their common
support, in the same order, whichever of the two is the query.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from .errors import InvalidArgument, InvalidQuery
from .text import tokenize

# Collisions add ~n_tokens^2/dim of spurious cosine between unrelated texts;
# 2048 buckets keeps that noise floor well under the similarity thresholds
# used for seeding (0.5) and pattern formation (0.85).
DEFAULT_DIM = 2048


class Embedder(Protocol):
    """Anything that maps text to a unit vector of a fixed dimension."""

    dim: int

    def embed(self, text: str) -> np.ndarray: ...


def _token_hash(token: str) -> int:
    return int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")


class HashingEmbedder:
    """Signed feature hashing over whitespace/punctuation-split tokens.

    No entry is ``-0.0``: ``±1.0`` sums from ``+0.0`` cancel to ``+0.0``; others stay nonzero.
    """

    def __init__(self, dim: int = DEFAULT_DIM) -> None:
        if dim < 2:
            raise InvalidArgument(f"embedding dimension must be >= 2, got {dim}")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        tokens = tokenize(text)
        if not tokens:
            raise InvalidQuery("cannot embed empty text")
        out = np.zeros(self.dim, dtype=np.float64)
        for tok in tokens:
            h = _token_hash(tok)
            sign = 1.0 if (h >> 63) & 1 else -1.0
            out[h % self.dim] += sign
        norm = float(np.linalg.norm(out))
        if norm == 0.0:  # opposing tokens can cancel; keep a deterministic unit vector
            out[0] = 1.0
            norm = 1.0
        return out / norm


def nonzero_index(v: np.ndarray) -> np.ndarray:
    """Indices of every entry of ``v`` that is not ``+0.0``.  ``-0.0`` is
    kept, so ``v`` rebuilds bit for bit from these entries."""
    return np.flatnonzero(np.signbit(v) | (v != 0))


class SparseVector(NamedTuple):
    """A vector of length ``dim`` as ``value`` at the increasing indices
    ``index``: every entry that is not ``+0.0``, ``-0.0`` kept, so
    :meth:`dense` rebuilds the array bit for bit, dtype included."""

    dim: int
    index: np.ndarray
    value: np.ndarray

    @classmethod
    def of(cls, dense: np.ndarray) -> "SparseVector":
        dense = np.asarray(dense)
        if dense.ndim != 1:
            raise InvalidArgument(f"a vector must be 1-D, got shape {dense.shape}")
        index = nonzero_index(dense)
        return cls(dense.size, index, dense[index])

    @classmethod
    def split(cls, dim: int, index: np.ndarray, value: np.ndarray,
              bounds: Sequence[int]) -> list["SparseVector"]:
        """Vector ``i`` as views of ``index`` and ``value`` over ``[bounds[i], bounds[i + 1])``,
        each built as ``_make`` builds one, without a Python-level call."""
        return [tuple.__new__(cls, (dim, index[a:b], value[a:b]))
                for a, b in zip(bounds, bounds[1:])]

    def dense(self) -> np.ndarray:
        """A new array of the vector: its entries scattered into zeros."""
        out = np.zeros(self.dim, self.value.dtype)
        out[self.index] = self.value
        return out


class SparseRows:
    """Sparse vectors of one dimension as the rows of flat ``(row, col, val)``
    arrays, in row order.

    Rows are appended at the end, replaced in place and deleted by
    position; the rows after a deleted one move up by one.  Appends wait in
    a list until the next :meth:`cosines`, :meth:`delete` or :meth:`extend`
    adds them all with one concatenation, so appending N rows copies the
    arrays once, not N times; :meth:`extend` adds rows already gathered into
    flat arrays.  A replace writes over the row's entries when their count
    is unchanged and copies the arrays once otherwise.
    """

    def __init__(self, dim: int, vectors: Iterable[SparseVector] = ()) -> None:
        self.dim = dim
        self.n = 0  # rows in the arrays
        self.row = np.empty(0, dtype=np.intp)
        self.col = np.empty(0, dtype=np.intp)
        self.val = np.empty(0, dtype=np.float64)
        self._pending = list(vectors)  # rows not in the arrays yet
        self._flush()

    def __len__(self) -> int:
        return self.n + len(self._pending)

    def append(self, vector: SparseVector) -> None:
        """Add a row holding ``vector``'s entries."""
        self._pending.append(vector)

    def replace(self, r: int, vector: SparseVector) -> None:
        """Make row ``r`` hold ``vector``'s entries, as if built with it."""
        if not 0 <= r < len(self):
            raise IndexError(f"row {r} of {len(self)}")
        if r >= self.n:
            self._pending[r - self.n] = vector
            return
        a, b = np.searchsorted(self.row, (r, r + 1)).tolist()
        size = vector.index.size
        if size == b - a:
            self.col[a:b] = vector.index
            self.val[a:b] = vector.value
            return
        self.row = np.concatenate((self.row[:a], np.full(size, r, self.row.dtype), self.row[b:]))
        self.col = np.concatenate((self.col[:a], vector.index, self.col[b:]))
        self.val = np.concatenate((self.val[:a], vector.value, self.val[b:]))

    def extend(self, sizes: Sequence[int], col: np.ndarray, val: np.ndarray) -> None:
        """Add ``len(sizes)`` rows with one concatenation: row ``i`` holds
        the next ``sizes[i]`` entries of ``col`` and ``val``."""
        self._flush()
        self._concat(sizes, (col,), (val,))

    def delete(self, r: int) -> None:
        self._flush()
        a, b = np.searchsorted(self.row, (r, r + 1)).tolist()
        self.row = np.concatenate((self.row[:a], self.row[b:] - 1))
        self.col = np.concatenate((self.col[:a], self.col[b:]))
        self.val = np.concatenate((self.val[:a], self.val[b:]))
        self.n -= 1

    def _flush(self) -> None:
        pending = self._pending
        if pending:
            self._pending = []
            self._concat([v.index.size for v in pending], (v.index for v in pending),
                         (v.value for v in pending))

    def _concat(self, sizes: Sequence[int], cols: Iterable[np.ndarray],
                vals: Iterable[np.ndarray]) -> None:
        rows = np.repeat(np.arange(self.n, self.n + len(sizes)), sizes)
        self.row = np.concatenate((self.row, rows))
        self.col = np.concatenate((self.col, *cols))
        self.val = np.concatenate((self.val, *vals))
        self.n += len(sizes)

    def cosines(self, q: np.ndarray) -> np.ndarray:
        """Every row's cosine with the dense ``q`` (see the module
        docstring): one ``np.bincount`` of the stored products, which adds
        each row's products in entry order to a ``+0.0``.  A row sharing no
        index with ``q`` is ``+0.0``."""
        self._flush()
        q = np.asarray(q)
        if q.shape != (self.dim,):
            raise ValueError(f"query shape {q.shape} != row shape ({self.dim},)")
        if not self.val.size:  # bincount of no weights gives ints
            return np.zeros(self.n)
        return np.bincount(self.row, self.val * q[self.col], self.n)
