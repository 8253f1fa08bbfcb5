"""Test-side helpers: controlled embedding providers, float engineering,
canned HTTP services and the benchmark's span recorder."""

from __future__ import annotations

import importlib.util
import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np

from joinscaffold.embedding import TrigramEmbeddingProvider


class FixedProvider(TrigramEmbeddingProvider):
    """Trigram provider with exact vector overrides for chosen names."""

    def __init__(self, overrides: dict[str, np.ndarray], dimension: int = 64):
        super().__init__(dimension)
        self.overrides = {}
        for k, v in overrides.items():
            vec = np.zeros(dimension, dtype=np.float64)
            arr = np.asarray(v, dtype=np.float64)
            vec[: arr.shape[0]] = arr  # zero padding keeps dots/norms bit-exact
            self.overrides[k] = vec

    def embed(self, text: str) -> np.ndarray:
        if text in self.overrides:
            return self.overrides[text]
        return super().embed(text)


def engineer_cosine_pair(c: float, dimension: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Two vectors whose cosine under the production formula is exactly ``c``.

    a = (1, 0, ...) has norm exactly 1. b = (c, y, 0, ...) with y ulp-searched
    until the production cosine (np.dot over np.linalg.norm) returns exactly
    the float ``c``.
    """
    from joinscaffold.embedding import cosine

    a = np.zeros(dimension)
    a[0] = 1.0
    y = math.sqrt(max(0.0, 1.0 - c * c))
    b = np.zeros(dimension)
    b[0] = c
    for direction in (0.0, 2.0):
        y_try = y
        for _ in range(10_000):
            b[1] = y_try
            if cosine(a, b) == c:
                return a, b.copy()
            y_try = math.nextafter(y_try, direction)
    raise AssertionError(f"could not engineer cosine {c}")


def engineer_similarity_cosine(
    target: float, sim_alpha: float = 0.85, type_match: float = 0.0
) -> float:
    """Float c with sim_alpha * c + (1 - sim_alpha) * type_match == target
    exactly (by default the type-mismatch path, where the sum is sim_alpha * c)."""
    c = (target - (1.0 - sim_alpha) * type_match) / sim_alpha
    for _ in range(10_000):
        value = sim_alpha * c + (1.0 - sim_alpha) * type_match
        if value == target:
            return c
        c = math.nextafter(c, 0.0 if value > target else 2.0)
    raise AssertionError(f"could not engineer similarity {target}")


def admitted_join_columns(schema, graph) -> list[tuple[str, str, str, str]]:
    """Join columns of each edge in ``graph``: FK columns on FK edges, else the
    edge's best column pair, as sorted (table, column, table, column) keys."""
    keys = []
    for a, b, cost in graph.sorted_edges():
        if cost.has_fk:
            ends = [
                ((fk.from_table, fk.from_column), (fk.to_table, fk.to_column))
                for fk in schema.fk_between(a, b)
            ]
        else:
            ends = [((a, cost.best_column_pair[0]), (b, cost.best_column_pair[1]))]
        keys += [(*min(x, y), *max(x, y)) for x, y in ends]
    return list(dict.fromkeys(keys))


@dataclass(frozen=True)
class Reply:
    """A canned ``json_server`` reply with its own status or a delay."""

    body: object = None
    status: int = 200
    delay: float = 0.0


@contextmanager
def json_server(*bodies, received=None):
    """Loopback HTTP server answering the n-th POST with ``bodies[n]`` as JSON
    (status 200 unless the body is a ``Reply``; the last body repeats). Yields
    the endpoint URL. Each request's (headers, decoded body) is appended to
    ``received`` when a list is given."""
    answers = list(bodies)

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            request = self.rfile.read(int(self.headers["Content-Length"]))
            if received is not None:
                received.append((dict(self.headers), json.loads(request)))
            answer = answers.pop(0) if len(answers) > 1 else answers[0]
            if not isinstance(answer, Reply):
                answer = Reply(answer)
            time.sleep(answer.delay)
            body = json.dumps(answer.body).encode()
            try:
                self.send_response(answer.status)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(body)
            except OSError:
                pass  # the client timed out and hung up

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    # A short poll interval keeps shutdown() from waiting out the 0.5 s default.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/api"
    finally:
        server.shutdown()
        server.server_close()


def load_perfbench_spans():
    """The benchmark's span recorder module, ``perfbench/spans.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans
