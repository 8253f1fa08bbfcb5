"""JSON over HTTP POST on the standard library, for the two service clients.

The generator (:class:`joinscaffold.pipeline.HttpGenerator`) and the embedding
provider (:class:`joinscaffold.embedding.HttpEmbeddingProvider`) each post one
JSON object and read one JSON reply. Every failure of the exchange (refused
connection, timeout, non-2xx status, broken reply, body that is not JSON)
raises one of :data:`POST_ERRORS`, which each client maps to its own error.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from typing import Any, Mapping

# URLError, HTTPError (a non-2xx status) and timeouts are OSErrors; a reply
# cut short is an HTTPException; a body that is not JSON is a ValueError.
POST_ERRORS = (OSError, http.client.HTTPException, ValueError)


def post_json(url: str, payload: Mapping[str, Any], api_key: str, timeout: float) -> Any:
    """POST ``payload`` as JSON to an http(s) ``url``; returns the decoded reply."""
    if not url.lower().startswith(("http://", "https://")):
        raise ValueError(f"not an http(s) URL: {url!r}")
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(
        url,
        data=json.dumps(payload, allow_nan=False).encode("utf-8"),
        headers=headers,
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        exc.close()  # it holds the reply's open connection
        raise
