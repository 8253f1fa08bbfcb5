import math

import numpy as np
import pytest

from helpers import Reply, json_server

from joinscaffold.embedding import (
    EmbeddingError,
    HttpEmbeddingProvider,
    TrigramEmbeddingProvider,
    _trigrams,
    cosine,
    cosine01,
    vector_norm,
)


def trigram_overlap_cosine(a: str, b: str) -> float:
    """Independent oracle: cosine over raw trigram count dictionaries."""
    ca: dict[str, int] = {}
    cb: dict[str, int] = {}
    for g in _trigrams(a):
        ca[g] = ca.get(g, 0) + 1
    for g in _trigrams(b):
        cb[g] = cb.get(g, 0) + 1
    dot = sum(ca[g] * cb.get(g, 0) for g in ca)
    na = math.sqrt(sum(v * v for v in ca.values()))
    nb = math.sqrt(sum(v * v for v in cb.values()))
    return dot / (na * nb)


def test_embed_deterministic():
    provider = TrigramEmbeddingProvider()
    assert np.array_equal(provider.embed("price"), provider.embed("price"))
    fresh = TrigramEmbeddingProvider()
    assert np.array_equal(provider.embed("price"), fresh.embed("price"))


def test_self_similarity_is_one():
    provider = TrigramEmbeddingProvider()
    v = provider.embed("price")
    assert cosine(v, v) == pytest.approx(1.0)


def test_unit_norm_and_dimension():
    provider = TrigramEmbeddingProvider()
    v = provider.embed("customer_id")
    assert v.shape == (64,)
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_related_names_beat_unrelated():
    # The trigram-overlap oracle predicts the ordering; the hashed projection
    # must agree: "prices" shares most of "price"'s trigrams, "zzqx" none.
    assert trigram_overlap_cosine("price", "prices") > trigram_overlap_cosine("price", "zzqx")
    provider = TrigramEmbeddingProvider()
    p = provider.embed("price")
    assert cosine(p, provider.embed("prices")) > cosine(p, provider.embed("zzqx"))


def test_empty_text_rejected():
    with pytest.raises(EmbeddingError):
        TrigramEmbeddingProvider().embed("")


def test_cosine01_clamps():
    a = np.array([1.0, 0.0])
    b = np.array([-1.0, 0.0])
    assert cosine(a, b) == -1.0
    assert cosine01(a, b) == 0.0
    assert cosine01(np.zeros(2), a) == 0.0


def test_http_provider_round_trip():
    received = []
    vectors = {"vectors": [[3.0, 1.0, 0.0], [5.0, 1.0, 0.0]]}
    with json_server(vectors, received=received) as url:
        provider = HttpEmbeddingProvider(endpoint=url)
        vecs = provider.embed_many(["abc", "defgh"])
        assert np.array_equal(vecs[0], np.array([3.0, 1.0, 0.0]))
        assert np.array_equal(vecs[1], np.array([5.0, 1.0, 0.0]))
        assert provider.dimension == 3
        assert np.array_equal(provider.embed("abc"), vecs[0])
    assert [body for _headers, body in received] == [{"texts": ["abc", "defgh"]}]


def test_http_provider_requires_endpoint(monkeypatch):
    monkeypatch.delenv("JOINSCAFFOLD_EMBED_ENDPOINT", raising=False)
    with pytest.raises(EmbeddingError, match="endpoint"):
        HttpEmbeddingProvider()


def test_http_provider_failure():
    with json_server(Reply({"error": "busy"}, status=503)) as url:
        provider = HttpEmbeddingProvider(endpoint=url, timeout=5.0)
        with pytest.raises(EmbeddingError):
            provider.embed("abc")
    provider.endpoint = "http://127.0.0.1:9/never"
    with pytest.raises(EmbeddingError):
        provider.embed("abc")


@pytest.mark.parametrize(
    "body",
    [
        {"vectors": None},
        [],
        {"vectors": [["x", 1.0]]},
        {"vectors": [{"x": 1.0}]},
        {"vectors": [5.0]},
        {"vectors": [[[1.0, 0.0]]]},
    ],
)
def test_http_provider_malformed_reply_is_embedding_error(body):
    with json_server(body) as url:
        provider = HttpEmbeddingProvider(endpoint=url, timeout=5.0)
        with pytest.raises(EmbeddingError):
            provider.embed("abc")
        assert provider.dimension == 0


def test_embed_text_uses_default_provider():
    from joinscaffold.embedding import embed_text, default_provider

    assert np.array_equal(embed_text("price"), default_provider().embed("price"))


def test_cosine_with_cached_norms_is_bit_identical():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.normal(size=64) * rng.uniform(1e-3, 1e3), rng.normal(size=64)
        na, nb = vector_norm(a), vector_norm(b)
        assert cosine(a, b, na, nb) == cosine(a, b)
        assert cosine01(a, b, na, nb) == cosine01(a, b)
    assert cosine(np.zeros(3), np.ones(3), 0.0, vector_norm(np.ones(3))) == 0.0


def test_http_provider_server_error_then_success():
    good = {"vectors": [[1.0, 2.0]]}
    with json_server(Reply({"error": "busy"}, status=503), good) as url:
        provider = HttpEmbeddingProvider(endpoint=url, timeout=5.0)
        with pytest.raises(EmbeddingError, match="503"):
            provider.embed("abc")
        assert provider.dimension == 0  # nothing cached from the failed call
        assert np.array_equal(provider.embed("abc"), np.array([1.0, 2.0]))


def test_http_provider_timeout_is_embedding_error():
    with json_server(Reply({"vectors": [[1.0]]}, delay=0.5)) as url:
        provider = HttpEmbeddingProvider(endpoint=url, timeout=0.1)
        with pytest.raises(EmbeddingError, match="timed out"):
            provider.embed("abc")


def test_http_provider_sends_the_api_key_and_texts():
    received = []
    with json_server({"vectors": [[1.0], [2.0]]}, received=received) as url:
        provider = HttpEmbeddingProvider(endpoint=url, api_key="k2", timeout=5.0)
        provider.embed_many(["a", "b"])
    ((headers, body),) = received
    assert headers["Authorization"] == "Bearer k2"
    assert body == {"texts": ["a", "b"]}
