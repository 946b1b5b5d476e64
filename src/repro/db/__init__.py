"""Embedded on-disk columnar SQL engine (DuckDB substitute).

The paper funnels all selected data into a DuckDB database so that
"data operations [run] on disk rather than in memory".  This package
provides the same contract with no external dependency:

* column-oriented on-disk storage, one :mod:`repro.gio` file per row group,
* a SQL subset (SELECT / WHERE / GROUP BY / HAVING / ORDER BY / LIMIT /
  JOIN / expression arithmetic / aggregate functions) with a hand-written
  lexer, recursive-descent parser, logical planner and a vectorized
  NumPy executor,
* streaming execution: filters and aggregations consume one row group at
  a time, so peak memory is bounded by the row-group size rather than
  the table size,
* precise storage accounting for the paper's provenance-overhead metrics.

Errors carry the known column/table names so the agents' quality-assurance
loop can repair near-miss identifiers, the paper's dominant failure mode.
"""

from repro.db.cache import QueryCacheStats, QueryResultCache
from repro.db.database import CatalogSnapshot, Database
from repro.db.errors import (
    DBError,
    IngestKilled,
    SQLSyntaxError,
    UnknownColumnError,
    UnknownTableError,
)

__all__ = [
    "CatalogSnapshot",
    "Database",
    "DBError",
    "IngestKilled",
    "QueryCacheStats",
    "QueryResultCache",
    "SQLSyntaxError",
    "UnknownColumnError",
    "UnknownTableError",
]
