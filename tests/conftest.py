from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import golden  # noqa: E402

from joinscaffold.schema import load_schema_from_document  # noqa: E402


@pytest.fixture(autouse=True)
def _empty_graph_memo(monkeypatch):
    """Every test starts with an empty admission and schema-graph memo, so no
    test is handed a graph another test built."""
    from joinscaffold import costs

    monkeypatch.setattr(costs, "_memo", None)


@pytest.fixture(scope="session")
def analytics_schema():
    return load_schema_from_document(golden.ANALYTICS_SCHEMA_DOC)


@pytest.fixture(scope="session")
def collectors_schema():
    return load_schema_from_document(golden.COLLECTOR_SCHEMA_DOC)


@pytest.fixture(scope="session")
def analytics_db(tmp_path_factory) -> Path:
    return golden.build_analytics_db(tmp_path_factory.mktemp("analytics") / "analytics.db")


@pytest.fixture(scope="session")
def collectors_db(tmp_path_factory) -> Path:
    return golden.build_collectors_db(tmp_path_factory.mktemp("collectors") / "collectors.db")


@pytest.fixture(scope="session")
def company_db(tmp_path_factory) -> Path:
    return golden.build_company_db(tmp_path_factory.mktemp("company") / "company.db")


@pytest.fixture(scope="session")
def company_schema(company_db):
    from joinscaffold.schema import load_schema_from_database

    return load_schema_from_database(company_db)
