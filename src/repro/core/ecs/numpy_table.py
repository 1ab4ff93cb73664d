"""NumPy-backed columnar storage: the vectorized execution substrate.

:class:`NumpyTable` implements the same bulk API as
:class:`~repro.core.ecs.components.SoATable` — ``column`` / ``columns``
/ ``gather`` / ``scatter`` / ``slice`` / ``chunk_slices`` — but stores
each component column as a typed ``np.ndarray`` with amortized-doubling
growth, so gathers and scatters execute as single fancy-indexing
operations instead of interpreted per-element loops.  This is the
physical realization of the layout :class:`SoATable` only models
logically: component values of one field really are contiguous in
memory.

Two contracts keep the backends interchangeable:

* **Scalar boundary.**  Everything a caller reads *out* of the table —
  ``get``, ``gather``, ``slice``, ``load_row``, ``chunk_slices`` — is
  converted to plain Python scalars (``ndarray.tolist``), never NumPy
  scalar types.  Kernel arithmetic therefore runs on exactly the same
  value types as under the Python backend, which is what makes the
  byte-identical-trace claim hold across backends (``repr`` of a NumPy
  scalar differs from the int it equals, which would silently break
  trace digests).  ``column``/``col`` return the live array views for
  vectorized kernels that want them.
* **Uniform errors.**  Out-of-range gather/scatter indices raise
  :class:`~repro.errors.ColumnIndexError` exactly like ``SoATable``;
  empty index arrays are valid no-ops.

dtype selection: a :class:`FieldSpec` with an integer default maps to
``int64`` (bit-exact for the picosecond timestamp arithmetic the systems
do — simulated spans up to ~10^6 s fit), a float default to ``float64``
(IEEE-754 doubles, the same arithmetic CPython floats use), anything
else to ``object`` (per-entity sets, port automata references).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .components import CHUNK_ENTITIES, FieldSpec
from ...errors import ColumnIndexError, ConfigError

#: Initial capacity of a fresh table (doubles from here).
_INITIAL_CAPACITY = 8


def dtype_of(spec: FieldSpec) -> np.dtype:
    """The storage dtype a field's default implies (see module doc)."""
    default = spec.default
    if isinstance(default, bool):
        return np.dtype(object)
    if isinstance(default, int):
        return np.dtype(np.int64)
    if isinstance(default, float):
        return np.dtype(np.float64)
    return np.dtype(object)


class NumpyTable:
    """Columnar storage for one entity kind over typed ndarrays."""

    def __init__(self, kind: str, schema: Sequence[FieldSpec]) -> None:
        if not schema:
            raise ConfigError(f"table {kind!r} needs at least one field")
        names = [f.name for f in schema]
        if len(set(names)) != len(names):
            raise ConfigError(f"table {kind!r} has duplicate fields")
        self.kind = kind
        self.schema: Tuple[FieldSpec, ...] = tuple(schema)
        self._dtypes: Dict[str, np.dtype] = {
            f.name: dtype_of(f) for f in schema
        }
        self._cap = _INITIAL_CAPACITY
        self._arrays: Dict[str, np.ndarray] = {
            f.name: np.empty(self._cap, dtype=self._dtypes[f.name])
            for f in schema
        }
        self._n = 0
        #: Resident working set: column name -> full-length Python list
        #: (see :meth:`resident`).  While present, these lists are the
        #: authoritative values of their columns; :meth:`_sync` flushes
        #: them back into the arrays before any array-level access.
        self._resident: Dict[str, List[Any]] = {}
        self._resident_views: Dict[Tuple[str, ...], Dict[str, List[Any]]] = {}

    # --- resident working set ----------------------------------------------

    def resident(self, names: Sequence[str]) -> Dict[str, List[Any]]:
        """A cached Python-value working set of whole columns.

        Returns ``{name: full-length list}`` materialized once
        (``ndarray.tolist``, one C call per column) and reused across
        calls, so per-window system kernels index it exactly like the
        ``SoATable`` list columns — same value types, same in-place
        mutation — with no per-window gather/scatter.  The arrays remain
        the storage of record *at rest*: any array-level access
        (``column``/``gather``/``scatter``/``add``/pickling) first
        flushes the resident lists back with one whole-column write per
        column and drops the cache (:meth:`_sync`), so checkpoints,
        migration row copies, and bulk reads always observe current
        values.  The flush is the backend's bulk commit: the entire
        index range scatters in one vectorized assignment per column.
        """
        res = self._resident
        missing = [name for name in names if name not in res]
        for name in missing:
            arr = self._arrays.get(name)
            if arr is None:
                raise ConfigError(
                    f"table {self.kind!r} has no field {name!r}")
            res[name] = arr[: self._n].tolist()
        key = tuple(names)
        view = self._resident_views.get(key)
        if view is None or missing:
            view = {name: res[name] for name in names}
            self._resident_views[key] = view
        return view

    def _sync(self) -> None:
        """Flush resident lists into the arrays and drop the cache."""
        if not self._resident:
            return
        n = self._n
        for name, values in self._resident.items():
            arr = self._arrays[name]
            if arr.dtype == object:
                # Element loop: asarray of nested containers would try
                # to broadcast them into a 2-D array.
                for k in range(n):
                    arr[k] = values[k]
            else:
                arr[:n] = values
        self._resident = {}
        self._resident_views = {}

    # --- growth -------------------------------------------------------------

    def _grow_to(self, need: int) -> None:
        """Amortized doubling: grow every column to capacity >= need."""
        if need <= self._cap:
            return
        cap = self._cap
        while cap < need:
            cap *= 2
        for name, arr in self._arrays.items():
            bigger = np.empty(cap, dtype=arr.dtype)
            bigger[: self._n] = arr[: self._n]
            self._arrays[name] = bigger
        self._cap = cap

    # --- entity management ------------------------------------------------

    def add(self, **values: Any) -> int:
        """Append an entity; unspecified fields take their defaults.

        Returns the new entity's dense index.
        """
        for key in values:
            if key not in self._arrays:
                raise ConfigError(f"table {self.kind!r} has no field {key!r}")
        self._sync()
        idx = self._n
        self._grow_to(idx + 1)
        for spec in self.schema:
            self._arrays[spec.name][idx] = values.get(spec.name, spec.default)
        self._n = idx + 1
        return idx

    def add_many(self, count: int) -> range:
        """Append ``count`` default-initialized entities."""
        self._sync()
        start = self._n
        end = start + count
        self._grow_to(end)
        for spec in self.schema:
            self._arrays[spec.name][start:end] = spec.default
        self._n = end
        return range(start, end)

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return self._n

    # --- column access -----------------------------------------------------

    def col(self, name: str) -> np.ndarray:
        """The live column view (alias of :meth:`column`)."""
        return self.column(name)

    def column(self, name: str) -> np.ndarray:
        """Bulk handle to one component column: a length-``n`` view.

        The view stays valid until the next growth (``add``/``add_many``
        past capacity); the engine only grows tables at build time, so
        system kernels can hold handles for a whole run.  Reading an
        element yields a NumPy scalar — vectorized kernels convert at
        the boundary (see module doc); scalar-at-a-time code should use
        :meth:`get`/:meth:`gather`, which convert for you.
        """
        self._sync()
        arr = self._arrays.get(name)
        if arr is None:
            raise ConfigError(f"table {self.kind!r} has no field {name!r}")
        return arr[: self._n]

    def columns(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        """Bulk handles to several columns at once, by name."""
        return {name: self.column(name) for name in names}

    def get(self, idx: int, name: str) -> Any:
        value = self.column(name)[idx]
        # Object columns store Python objects directly; typed columns
        # yield NumPy scalars that must convert at the boundary.
        return value.tolist() if isinstance(value, np.generic) else value

    def set(self, idx: int, name: str, value: Any) -> None:
        self.column(name)[idx] = value

    def load_row(self, idx: int) -> Dict[str, Any]:
        """Materialize one entity's fields as plain Python values."""
        return {spec.name: self.get(idx, spec.name) for spec in self.schema}

    def store_row(self, idx: int, values: Dict[str, Any]) -> None:
        """Write back fields produced by a transition (one write per column)."""
        for name, value in values.items():
            self.column(name)[idx] = value

    # --- bulk columnar access ----------------------------------------------

    def _index_array(self, idxs: Sequence[int], op: str, name: str) -> np.ndarray:
        """Validate and convert an index sequence (uniform error contract)."""
        ix = np.asarray(idxs, dtype=np.int64)
        if ix.ndim != 1:
            ix = ix.reshape(-1)
        if ix.size:
            lo = int(ix.min())
            hi = int(ix.max())
            if lo < 0 or hi >= self._n:
                bad = lo if lo < 0 else hi
                raise ColumnIndexError(
                    f"{op} on {self.kind!r}.{name}: index {bad} out of "
                    f"range for {self._n} entities"
                )
        return ix

    def gather(self, idxs: Sequence[int], names: Sequence[str]) -> Dict[str, List[Any]]:
        """Fancy-indexed read of several entities, column by column.

        One vectorized ``column[idxs]`` per column; results come back as
        plain Python lists (``tolist`` converts NumPy scalars), so the
        values are interchangeable with a ``SoATable`` gather.
        """
        ix = self._index_array(idxs, "gather", names[0] if names else "*")
        return {name: self.column(name)[ix].tolist() for name in names}

    def scatter(self, idxs: Sequence[int], name: str, values: Sequence[Any]) -> None:
        """Vectorized write: ``column[name][idxs] = values`` in one shot."""
        if len(idxs) != len(values):
            raise ConfigError(
                f"scatter into {self.kind!r}.{name}: {len(idxs)} indices "
                f"vs {len(values)} values"
            )
        ix = self._index_array(idxs, "scatter", name)
        arr = self.column(name)
        if arr.dtype == object and not isinstance(values, np.ndarray):
            # np.asarray would try to broadcast nested containers (sets,
            # lists) into a 2-D array; fromiter keeps them opaque.
            vals = np.empty(len(values), dtype=object)
            for k, v in enumerate(values):
                vals[k] = v
            arr[ix] = vals
        else:
            arr[ix] = np.asarray(values, dtype=arr.dtype)

    def slice(self, name: str, start: int, end: int) -> List[Any]:
        """A contiguous segment of one column, as plain Python values."""
        return self.column(name)[start:end].tolist()

    def chunk_slices(self, names: Sequence[str]) -> Iterator[Tuple[int, int, Dict[str, List[Any]]]]:
        """Yield ``(start, end, {name: column[start:end]})`` per chunk.

        Segments are converted to Python lists (the same unit-of-access
        contract as ``SoATable.chunk_slices``, whose list slices copy).
        """
        cols = self.columns(names)
        for start, end in self.chunks():
            yield start, end, {
                name: col[start:end].tolist() for name, col in cols.items()
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

    # --- pickling (checkpoints / process-transport agents) ------------------

    def __reduce_ex__(self, protocol: int):
        if protocol >= 5:
            # Zero-copy export: hand the pickler trimmed *views* of the
            # typed columns instead of __getstate__'s defensive copies.
            # In-band (no buffer_callback) the view serializes into the
            # stream immediately; out-of-band (the shm checkpoint
            # container) each column becomes a raw PickleBuffer whose
            # only copy is the memcpy into the shared segment.  Object
            # columns cannot export raw and pickle in-band either way.
            self._sync()
            state = self.__dict__.copy()
            state["_arrays"] = {
                name: arr[: self._n] for name, arr in self._arrays.items()
            }
            state["_cap"] = max(self._n, _INITIAL_CAPACITY)
            return (_rebuild_table, (state,))
        return super().__reduce_ex__(protocol)

    def __getstate__(self) -> dict:
        self._sync()  # the arrays must be current before they persist
        state = self.__dict__.copy()
        # Trim to size: a checkpoint should not carry slack capacity.
        state["_arrays"] = {
            name: arr[: self._n].copy() for name, arr in self._arrays.items()
        }
        state["_cap"] = max(self._n, _INITIAL_CAPACITY)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        cap = self._cap
        for name, arr in list(self._arrays.items()):
            if len(arr) < cap or not arr.flags.writeable:
                bigger = np.empty(cap, dtype=arr.dtype)
                bigger[: self._n] = arr[: self._n]
                self._arrays[name] = bigger


def _rebuild_table(state: dict) -> "NumpyTable":
    table = NumpyTable.__new__(NumpyTable)
    table.__setstate__(state)
    return table
