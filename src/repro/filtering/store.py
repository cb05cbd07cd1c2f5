"""Per-vector attribute storage: the :class:`MetadataStore`.

Attributes are integer/categorical columns aligned with the dataset's
row order (global ids): ``store.column("tenant")[gid]`` is row ``gid``'s
tenant.  ``fit(X, metadata=...)`` attaches one of these at build time;
the builder slices each column by the partition's global ids so every
worker holds exactly its rows' attributes
(:attr:`~repro.core.partition.Partition.attrs`) and can evaluate pushed-
down predicates locally without seeing the rest of the dataset.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MISSING_VALUE", "MetadataStore", "mask_for", "selectivity"]

#: attribute value of rows that carry none (points inserted after ``fit``):
#: below every real value, so no ``eq``/``in``/``range`` clause over real
#: values admits such a row
MISSING_VALUE = np.iinfo(np.int64).min


def mask_for(attrs: dict[str, np.ndarray], clauses, n_rows: int) -> np.ndarray:
    """Row mask for a predicate conjunction over attribute columns.

    ``attrs`` maps attribute name -> per-row values; rows missing an
    attribute column match nothing (a filter on an unknown attribute
    selects the empty set, it does not error — workers must not crash on
    a stale predicate).
    """
    mask = np.ones(n_rows, dtype=bool)
    for clause in clauses:
        col = (attrs or {}).get(clause.attr)
        if col is None:
            mask[:] = False
            break
        mask &= clause.matches(col)
    return mask


def selectivity(mask: np.ndarray) -> float:
    """Matching fraction of a row mask (0.0 on an empty store)."""
    n = len(mask)
    return float(np.count_nonzero(mask)) / n if n else 0.0


class MetadataStore:
    """Columnar int/categorical attributes aligned with dataset row order.

    The build-time entry point for filtered search: construct one over
    the corpus (``MetadataStore({"tenant": t, "tier": q})``), hand it to
    ``DistributedANN.fit(X, metadata=store)``, and filtered queries can
    then predicate on any column.  Columns are int64 arrays of length
    ``n_rows``; :meth:`slice_rows` produces the per-partition views the
    builder ships to workers.
    """

    def __init__(self, columns: dict[str, np.ndarray] | None = None) -> None:
        self._columns: dict[str, np.ndarray] = {}
        for name, values in (columns or {}).items():
            self.add_column(name, values)

    def __len__(self) -> int:
        return next(iter(self._columns.values())).shape[0] if self._columns else 0

    @property
    def n_rows(self) -> int:
        return len(self)

    @property
    def names(self) -> list[str]:
        return sorted(self._columns)

    def add_column(self, name: str, values: np.ndarray) -> None:
        """Attach one attribute column (cast to int64, length-checked)."""
        col = np.asarray(values)
        if col.ndim != 1:
            raise ValueError(f"attribute column {name!r} must be 1-d, got shape {col.shape}")
        if not np.issubdtype(col.dtype, np.integer):
            if not np.issubdtype(col.dtype, np.number):
                raise ValueError(
                    f"attribute column {name!r} must be int/categorical codes, got {col.dtype}"
                )
            col = col.astype(np.int64)
        col = np.ascontiguousarray(col, dtype=np.int64)
        if self._columns and len(col) != len(self):
            raise ValueError(
                f"attribute column {name!r} has {len(col)} rows, store has {len(self)}"
            )
        self._columns[name] = col

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no attribute column {name!r}; available: {self.names}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def slice_rows(self, row_ids: np.ndarray) -> dict[str, np.ndarray]:
        """Per-partition attribute views: every column sliced by global ids."""
        row_ids = np.asarray(row_ids)
        return {name: col[row_ids].copy() for name, col in self._columns.items()}

    def mask(self, clauses) -> np.ndarray:
        """Global row mask for a predicate conjunction."""
        return mask_for(self._columns, clauses, len(self))

    def selectivity(self, clauses) -> float:
        """Matching fraction of the whole corpus for a conjunction."""
        return selectivity(self.mask(clauses))

    @property
    def nbytes(self) -> int:
        return int(sum(col.nbytes for col in self._columns.values()))
