"""Catalog of tables (and logical views) available to queries.

A table entry records its schema and physical layout (how many splits it is
stored as in simulated object storage) plus, for convenience, the in-memory
:class:`~repro.data.Batch` holding the generated data.  The distributed
engine reads the data through the simulated S3 storage layer; the
single-node reference interpreter reads it directly.

A *view* is a named logical plan (registered via
:meth:`QuokkaContext.create_view`): SQL statements and ``ctx.read_table``
resolve view names by splicing the stored plan into the query, which is how
SQL and DataFrame queries compose.  Tables and views share one namespace.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.statistics import TableStats
    from repro.plan.nodes import LogicalPlan

from repro.common.errors import PlanError
from repro.data.batch import Batch
from repro.data.dictionary import DictionaryArray
from repro.data.schema import Schema

#: Every table :meth:`Catalog.register` stamped, by token, for as long as it
#: lives.  A forked process inherits the map, so a token resolves there to
#: the fork-inherited copy of the table (see :meth:`TableMetadata.__reduce_ex__`).
_TABLES_BY_TOKEN: "weakref.WeakValueDictionary[int, TableMetadata]" = (
    weakref.WeakValueDictionary()
)
_last_token = 0
#: ``id`` of every vocabulary a registered table's dictionary columns hold,
#: mapped to ``(token, column)``.  :func:`vocabulary_owner` checks identity
#: before it trusts an entry, so the id of a freed vocabulary never resolves.
_VOCABULARY_OWNERS: Dict[int, Tuple[int, str]] = {}


def newest_table_token() -> int:
    """The largest token stamped so far in this process (0 before any)."""
    return _last_token


def _stamp(table: "TableMetadata") -> None:
    global _last_token
    _last_token += 1
    table.token = _last_token
    _TABLES_BY_TOKEN[_last_token] = table
    if table.data is not None:
        for name, column in table.data.columns().items():
            if isinstance(column, DictionaryArray):
                _VOCABULARY_OWNERS[id(column.values)] = (_last_token, name)


def _table_by_token(token: int) -> "TableMetadata":
    try:
        return _TABLES_BY_TOKEN[token]
    except KeyError:
        raise PlanError(
            f"table token {token} is unknown in this process; it was registered "
            "after this process forked, or has been freed"
        ) from None


def catalog_dictionary(token: int, column: str) -> DictionaryArray:
    """Dictionary column ``column`` of the registered table ``token``."""
    return _table_by_token(token).data.column_data(column)


def vocabulary_owner(values) -> Optional[Tuple[int, str]]:
    """``(token, column)`` of the registered table column whose vocabulary
    *is* ``values``, or ``None`` when no live registered table owns it.

    A forked process inherits both maps, so the pair resolves there (through
    :func:`catalog_dictionary`) to its own copy of the same vocabulary.
    """
    owner = _VOCABULARY_OWNERS.get(id(values))
    if owner is None:
        return None
    table = _TABLES_BY_TOKEN.get(owner[0])
    if table is None or table.data is None:
        return None
    column = table.data.column_data(owner[1])
    if not isinstance(column, DictionaryArray) or column.values is not values:
        return None
    return owner


@dataclass
class TableMetadata:
    """Metadata and (optionally resident) data for one catalog table."""

    name: str
    schema: Schema
    num_rows: int
    nbytes: int
    num_splits: int
    data: Optional[Batch] = None
    #: Per-column statistics computed by ``ANALYZE`` (``Catalog.analyze`` /
    #: lazily by the cardinality estimator); ``None`` until computed.
    stats: Optional["TableStats"] = None
    #: Per-split ``{column: (min, max, has_nan)}`` zone maps, computed lazily
    #: by :func:`repro.optimizer.statistics.split_zone_maps` for scan-time
    #: split pruning; ``None`` until computed.
    zone_maps: Optional[List[dict]] = None
    #: Process-wide registration number stamped by :meth:`Catalog.register`;
    #: ``None`` for a table built directly.
    token: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    def __reduce_ex__(self, protocol):
        """Pickle a registered table by reference, never its data.

        The token resolves against the receiving process's copy of the table
        registry, so the receiver must be a fork taken after the table was
        registered — the parallel backend re-forks its pool otherwise.  A
        table built directly pickles by value.
        """
        if self.token is None:
            return super().__reduce_ex__(protocol)
        return _table_by_token, (self.token,)

    def analyze(self) -> Optional["TableStats"]:
        """Compute (once) and return this table's statistics."""
        from repro.optimizer.statistics import analyze_table

        return analyze_table(self)

    def splits(self) -> List[Batch]:
        """Split the resident data into exactly ``num_splits`` row ranges.

        Each split plays the role of one Parquet file / row group in S3: the
        unit an input-reader task reads.  Split sizes differ by at most one
        row; when the table has fewer rows than splits the trailing splits are
        empty, so the number of splits always matches the metadata the
        physical plan was built from.
        """
        return [self.split(index) for index in range(self.num_splits)]

    def split(self, index: int) -> Batch:
        """Split ``index`` of :meth:`splits`, without slicing the others."""
        if self.data is None:
            raise PlanError(f"table {self.name!r} has no resident data")
        if not 0 <= index < self.num_splits:
            raise PlanError(
                f"table {self.name!r} has {self.num_splits} splits, no split {index}"
            )
        base, extra = divmod(self.num_rows, self.num_splits)
        start = index * base + min(index, extra)
        return self.data.slice(start, base + (1 if index < extra else 0))


class Catalog:
    """A named collection of tables and logical views (one shared namespace)."""

    def __init__(self):
        self._tables: Dict[str, TableMetadata] = {}
        self._views: Dict[str, "LogicalPlan"] = {}

    def register(
        self,
        name: str,
        data: Batch,
        num_splits: int = 8,
        nbytes: Optional[int] = None,
    ) -> TableMetadata:
        """Register an in-memory batch as a table."""
        if name in self._tables or name in self._views:
            raise PlanError(f"table or view {name!r} is already registered")
        if num_splits < 1:
            raise PlanError("num_splits must be at least 1")
        metadata = TableMetadata(
            name=name,
            schema=data.schema,
            num_rows=data.num_rows,
            nbytes=nbytes if nbytes is not None else data.nbytes,
            num_splits=num_splits,
            data=data,
        )
        _stamp(metadata)
        self._tables[name] = metadata
        return metadata

    def table(self, name: str) -> TableMetadata:
        """Look up a table; raise :class:`PlanError` when missing."""
        try:
            return self._tables[name]
        except KeyError:
            hint = " (a view; use Catalog.view)" if name in self._views else ""
            raise PlanError(
                f"unknown table {name!r}{hint}; registered tables: {sorted(self._tables)}"
            ) from None

    # -- statistics (ANALYZE) ------------------------------------------------------

    def analyze(self, names: Optional[List[str]] = None) -> Dict[str, "TableStats"]:
        """Compute (and cache) statistics for the named tables (default: all).

        This is the ``ANALYZE`` entry point: one pass per table, cached on the
        :class:`TableMetadata`, after which the cost-based planner has exact
        row counts, NDVs and min/max bounds.  Tables without resident data are
        skipped.  Returns the computed stats by table name.
        """
        targets = names if names is not None else list(self._tables)
        out: Dict[str, "TableStats"] = {}
        for name in targets:
            stats = self.table(name).analyze()
            if stats is not None:
                out[name] = stats
        return out

    def stats(self, name: str) -> Optional["TableStats"]:
        """Cached statistics of table ``name`` (``None`` before ``analyze``)."""
        return self.table(name).stats

    # -- views --------------------------------------------------------------------

    def register_view(self, name: str, plan: "LogicalPlan") -> None:
        """Register a logical plan under ``name`` so queries can reference it.

        Views occupy the same namespace as tables; the SQL planner and
        ``ctx.read_table`` resolve either kind by name.
        """
        if name in self._tables or name in self._views:
            raise PlanError(f"table or view {name!r} is already registered")
        self._views[name] = plan

    def view(self, name: str) -> "LogicalPlan":
        """Look up a view's logical plan; raise :class:`PlanError` when missing."""
        try:
            return self._views[name]
        except KeyError:
            raise PlanError(
                f"unknown view {name!r}; registered views: {sorted(self._views)}"
            ) from None

    def has_view(self, name: str) -> bool:
        """True when ``name`` is a registered view."""
        return name in self._views

    def __contains__(self, name: str) -> bool:
        return name in self._tables or name in self._views

    def __iter__(self) -> Iterator[TableMetadata]:
        return iter(self._tables.values())

    def names(self) -> List[str]:
        """Names of all registered tables (views excluded; see :meth:`view_names`)."""
        return sorted(self._tables)

    def view_names(self) -> List[str]:
        """Names of all registered views."""
        return sorted(self._views)
