"""Struct-of-arrays component storage (the D in DOD).

A :class:`SoATable` stores one *kind* of entity: each component (field)
is a separate column holding that field's value for every entity,
contiguously, indexed by the entity's dense id — the columnar layout of
paper Fig. 7.

In CPython a "column" is a list (the interpreter owns physical layout);
what this class preserves from Unity DOTS is the *logical* layout — which
fields are stored together and in what order they are swept.  Both
kernel sets (the four reference systems and the fused pass) index
the same list columns, so kernel arithmetic runs on plain Python scalars
either way — which is what keeps trace digests byte-identical between
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from ...errors import ConfigError


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

    def add_many(self, count: int, **columns: Sequence[Any]) -> range:
        """Append ``count`` entities in bulk: a field passed as a keyword
        takes that ``count``-long sequence, every other its default."""
        for key, values in columns.items():
            if key not in self._columns:
                raise ConfigError(f"table {self.kind!r} has no field {key!r}")
            if len(values) != count:
                raise ConfigError(
                    f"table {self.kind!r}: {len(values)} values for "
                    f"{key!r}, {count} entities")
        for spec in self.schema:
            self._columns[spec.name].extend(
                columns[spec.name] if spec.name in columns
                else [spec.default] * count)
        start = self._n
        self._n += count
        return range(start, self._n)

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    # --- column access -----------------------------------------------------

    def column(self, name: str) -> List[Any]:
        """Bulk handle to one component column.

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

    def memory_bytes(self) -> int:
        """Modeled physical footprint: columns are dense arrays."""
        per_entity = sum(f.item_bytes for f in self.schema)
        return per_entity * self._n
