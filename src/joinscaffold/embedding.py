"""Text embedding providers used for name similarity.

Two interchangeable providers:

* :class:`TrigramEmbeddingProvider` (default) — signed feature hashing of
  character trigrams into a fixed 64-dimensional unit vector. Fully
  deterministic, no network, no model weights.
* :class:`HttpEmbeddingProvider` — client for an external embedding service
  (``POST {"texts": [...]}`` returning ``{"vectors": [[...]]}``), configured
  through ``JOINSCAFFOLD_EMBED_ENDPOINT`` / ``JOINSCAFFOLD_EMBED_API_KEY``.

Cosine values feeding cost formulas are clamped to [0, 1] by the callers in
:mod:`joinscaffold.costs`; hashed vectors can have slightly negative cosines.
"""

from __future__ import annotations

import hashlib
import os
import re
from typing import Protocol, Sequence

import numpy as np

from .httpjson import POST_ERRORS, post_json

DEFAULT_DIMENSION = 64

# What separates the words of a name: every run of characters that is neither
# a letter nor a digit, in any script. Name matching (``decompose``) and the
# trigram embedding both normalise with it, so they agree on what a name is.
WORD_BREAK = re.compile(r"[\W_]+")


class EmbeddingError(RuntimeError):
    """Raised when a provider cannot produce a vector."""


class EmbeddingProvider(Protocol):
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...


def _trigrams(text: str) -> list[str]:
    padded = f"^{WORD_BREAK.sub(' ', text.lower()).strip()}$"
    if len(padded) < 3:
        return [padded]
    return [padded[i : i + 3] for i in range(len(padded) - 2)]


class TrigramEmbeddingProvider:
    """Deterministic hashed-trigram embeddings.

    Each trigram hashes (blake2b, 8 bytes) to a bucket in [0, dimension) and a
    sign bit; counts accumulate and the result is L2-normalized.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION) -> None:
        self.dimension = dimension
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise EmbeddingError("cannot embed empty text")
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        vec = np.zeros(self.dimension, dtype=np.float64)
        for gram in _trigrams(text):
            h = int.from_bytes(
                hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "big"
            )
            bucket = h % self.dimension
            sign = 1.0 if (h >> 32) & 1 == 0 else -1.0
            vec[bucket] += sign
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            # All trigram contributions cancelled; fall back to a unit basis
            # vector so the result is still well-formed.
            vec[0] = 1.0
            norm = 1.0
        vec = vec / norm
        vec.setflags(write=False)
        self._cache[text] = vec
        return vec


class HttpEmbeddingProvider:
    """Client for an external embedding service."""

    def __init__(
        self,
        endpoint: str | None = None,
        api_key: str | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.endpoint = endpoint or os.environ.get("JOINSCAFFOLD_EMBED_ENDPOINT", "")
        self.api_key = api_key or os.environ.get("JOINSCAFFOLD_EMBED_API_KEY", "")
        if not self.endpoint:
            raise EmbeddingError(
                "no embedding endpoint configured (JOINSCAFFOLD_EMBED_ENDPOINT)"
            )
        self.timeout = timeout
        self.dimension = 0  # recorded from the first response
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, text: str) -> np.ndarray:
        if not text:
            raise EmbeddingError("cannot embed empty text")
        return self.embed_many([text])[0]

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        missing = [t for t in texts if t not in self._cache]
        if missing:
            try:
                reply = post_json(
                    self.endpoint, {"texts": list(missing)}, self.api_key, self.timeout
                )
                vectors = reply["vectors"]
                count = len(vectors)
            except (*POST_ERRORS, KeyError, TypeError) as exc:
                raise EmbeddingError(f"embedding service failure: {exc}") from exc
            if count != len(missing):
                raise EmbeddingError(
                    f"embedding service returned {count} vectors for {len(missing)} texts"
                )
            for text, raw in zip(missing, vectors):
                try:
                    vec = np.asarray(raw, dtype=np.float64)
                except (TypeError, ValueError) as exc:
                    raise EmbeddingError(f"malformed embedding for {text!r}: {exc}") from exc
                if vec.ndim != 1:
                    raise EmbeddingError(f"embedding for {text!r} is not a flat vector")
                if not np.all(np.isfinite(vec)):
                    raise EmbeddingError(f"non-finite embedding for {text!r}")
                if self.dimension == 0:
                    self.dimension = vec.shape[0]
                elif vec.shape[0] != self.dimension:
                    raise EmbeddingError(
                        f"embedding dimension changed: {vec.shape[0]} != {self.dimension}"
                    )
                vec.setflags(write=False)
                self._cache[text] = vec
        return [self._cache[t] for t in texts]


_default_provider: TrigramEmbeddingProvider | None = None


def default_provider() -> TrigramEmbeddingProvider:
    """Shared trigram provider (module-level cache of embedded names)."""
    global _default_provider
    if _default_provider is None:
        _default_provider = TrigramEmbeddingProvider()
    return _default_provider


def embed_text(text: str, provider: EmbeddingProvider | None = None) -> np.ndarray:
    """Embed ``text`` with the given provider (default: hashed trigrams)."""
    return (provider or default_provider()).embed(text)


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm, as :func:`cosine` computes it."""
    return float(np.linalg.norm(v))


def cosine(
    a: np.ndarray, b: np.ndarray, na: float | None = None, nb: float | None = None
) -> float:
    """Plain cosine similarity; 0.0 when either vector is zero.

    ``na`` and ``nb`` are the norms of ``a`` and ``b`` (:func:`vector_norm`)
    when the caller has them cached; the result is the same either way.
    """
    na = vector_norm(a) if na is None else na
    nb = vector_norm(b) if nb is None else nb
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def cosine01(
    a: np.ndarray, b: np.ndarray, na: float | None = None, nb: float | None = None
) -> float:
    """Cosine clamped to [0, 1], the form every cost formula consumes."""
    return min(1.0, max(0.0, cosine(a, b, na, nb)))
