"""Struct-of-arrays component storage (the D in DOD).

A :class:`SoATable` stores one *kind* of entity: each component (field)
is a separate column holding that field's value for every entity,
contiguously, indexed by the entity's dense id — the columnar layout of
paper Fig. 7.  Columns are segmented into fixed-size chunks; chunk
boundaries do not affect semantics but are the unit the machine model
uses to reason about page/cache behaviour.

In CPython a "column" is a list (the interpreter owns physical layout);
what this class preserves from Unity DOTS is the *logical* layout — which
fields are stored together, in what order they are swept, and the chunk
geometry — which is exactly what the cache model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Sequence, Tuple

from ...errors import ColumnIndexError, ConfigError

#: Entities per chunk (Unity DOTS uses 16 KiB chunks; with the ~16-byte
#: scalar components below this is the same order of entity count).
CHUNK_ENTITIES = 1024


@dataclass(frozen=True)
class FieldSpec:
    """Schema entry of one component column."""

    name: str
    default: Any
    item_bytes: int = 8  # physical size the machine model charges per item


class SoATable:
    """Columnar storage for one entity kind."""

    def __init__(self, kind: str, schema: Sequence[FieldSpec]) -> None:
        if not schema:
            raise ConfigError(f"table {kind!r} needs at least one field")
        names = [f.name for f in schema]
        if len(set(names)) != len(names):
            raise ConfigError(f"table {kind!r} has duplicate fields")
        self.kind = kind
        self.schema: Tuple[FieldSpec, ...] = tuple(schema)
        self._columns: Dict[str, List[Any]] = {f.name: [] for f in schema}
        self._n = 0

    # --- entity management ------------------------------------------------

    def add(self, **values: Any) -> int:
        """Append an entity; unspecified fields take their defaults.

        Returns the new entity's dense index.
        """
        for key in values:
            if key not in self._columns:
                raise ConfigError(f"table {self.kind!r} has no field {key!r}")
        for spec in self.schema:
            self._columns[spec.name].append(values.get(spec.name, spec.default))
        idx = self._n
        self._n += 1
        return idx

    def add_many(self, count: int) -> range:
        """Append ``count`` default-initialized entities."""
        for spec in self.schema:
            self._columns[spec.name].extend([spec.default] * count)
        start = self._n
        self._n += count
        return range(start, self._n)

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    # --- column access -----------------------------------------------------

    def col(self, name: str) -> List[Any]:
        """The raw column; systems sweep these directly."""
        return self._columns[name]

    def column(self, name: str) -> List[Any]:
        """Bulk handle to one component column (alias of :meth:`col`).

        Kernels grab column handles once per system run and then index
        them per entity — one attribute lookup per *column*, not per
        entity access, which is what makes the sweep columnar.
        """
        if name not in self._columns:
            raise ConfigError(f"table {self.kind!r} has no field {name!r}")
        return self._columns[name]

    def columns(self, names: Sequence[str]) -> Dict[str, List[Any]]:
        """Bulk handles to several columns at once, by name."""
        return {name: self.column(name) for name in names}

    def get(self, idx: int, name: str) -> Any:
        return self._columns[name][idx]

    def set(self, idx: int, name: str, value: Any) -> None:
        self._columns[name][idx] = value

    def load_row(self, idx: int) -> Dict[str, Any]:
        """Materialize one entity's fields (bridging into pure-function
        protocol transitions; one read per column, the columnar pattern)."""
        return {name: col[idx] for name, col in self._columns.items()}

    def store_row(self, idx: int, values: Dict[str, Any]) -> None:
        """Write back fields produced by a transition (one write per column)."""
        for name, value in values.items():
            self._columns[name][idx] = value

    # --- bulk columnar access ----------------------------------------------

    def _check_idxs(self, idxs: Sequence[int], op: str, name: str) -> None:
        """Uniform bounds check shared (in spirit) with NumpyTable.

        Empty index sequences are valid (a no-op gather/scatter); any
        index outside ``[0, n)`` — including negative indices, which
        Python lists would silently wrap — raises
        :class:`~repro.errors.ColumnIndexError`.
        """
        n = self._n
        for i in idxs:
            if not 0 <= i < n:
                raise ColumnIndexError(
                    f"{op} on {self.kind!r}.{name}: index {i} out of "
                    f"range for {n} entities"
                )

    def gather(self, idxs: Sequence[int], names: Sequence[str]) -> Dict[str, List[Any]]:
        """Read several entities' fields column by column.

        Returns ``{name: [column[i] for i in idxs]}`` — the values of each
        requested column at the requested indices, in ``idxs`` order.  One
        column is swept at a time (the cache-friendly order), which is the
        access pattern the machine model charges for.  An empty ``idxs``
        yields empty lists; out-of-range indices raise
        :class:`~repro.errors.ColumnIndexError`.
        """
        out: Dict[str, List[Any]] = {}
        first = True
        for name in names:
            col = self.column(name)
            if first:
                self._check_idxs(idxs, "gather", name)
                first = False
            out[name] = [col[i] for i in idxs]
        return out

    def scatter(self, idxs: Sequence[int], name: str, values: Sequence[Any]) -> None:
        """Write ``values[k]`` to ``column[name][idxs[k]]`` for every k.

        Empty ``idxs`` is a no-op; out-of-range indices raise
        :class:`~repro.errors.ColumnIndexError` before any write lands
        (the scatter is atomic with respect to validation).
        """
        if len(idxs) != len(values):
            raise ConfigError(
                f"scatter into {self.kind!r}.{name}: {len(idxs)} indices "
                f"vs {len(values)} values"
            )
        col = self.column(name)
        self._check_idxs(idxs, "scatter", name)
        for i, v in zip(idxs, values):
            col[i] = v

    def slice(self, name: str, start: int, end: int) -> List[Any]:
        """A contiguous segment of one column (a chunk-slice view).

        CPython lists copy on slice; what the API pins is the *unit* of
        access — kernels receive whole segments, never single cells.
        """
        return self.column(name)[start:end]

    def chunk_slices(self, names: Sequence[str]) -> Iterator[Tuple[int, int, Dict[str, List[Any]]]]:
        """Yield ``(start, end, {name: column[start:end]})`` per chunk.

        Each slice covers one storage chunk, so a sweep over them
        aligns with the cache/page geometry the machine model reasons
        about.
        """
        cols = self.columns(names)
        for start, end in self.chunks():
            yield start, end, {
                name: col[start:end] for name, col in cols.items()
            }

    # --- chunk geometry (machine model) ------------------------------------

    def chunks(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(start, end)`` entity ranges, one per chunk."""
        for start in range(0, self._n, CHUNK_ENTITIES):
            yield start, min(start + CHUNK_ENTITIES, self._n)

    def chunk_count(self) -> int:
        return (self._n + CHUNK_ENTITIES - 1) // CHUNK_ENTITIES

    def memory_bytes(self) -> int:
        """Modeled physical footprint: columns are dense arrays."""
        per_entity = sum(f.item_bytes for f in self.schema)
        return per_entity * self._n
