"""Lockstep conformance of the NumPy table against the Python reference.

:class:`NumpyTable` must be observationally identical to
:class:`SoATable` through the whole bulk API — same values, same value
*types* at the scalar boundary (plain Python ints, never ``np.int64``),
same error contract — because the vectorized systems' byte-identical-
trace claim rests on it.  These tests drive both tables through the
same operation sequences (hypothesis-generated and hand-picked edge
cases: growth boundaries, empty index arrays, object-dtype columns,
resident working-set flushes) and assert every observable agrees.
"""

import pickle

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.core.ecs.components import CHUNK_ENTITIES, FieldSpec, SoATable
from repro.core.ecs.entity import BACKENDS, make_table
from repro.core.ecs.numpy_table import _INITIAL_CAPACITY, NumpyTable
from repro.errors import ColumnIndexError, ConfigError

#: Mixed dtypes on purpose: int64, float64, and two object columns (bool
#: defaults map to object so Python bools round-trip unchanged).
SCHEMA = (FieldSpec("i", 0), FieldSpec("f", 0.0),
          FieldSpec("flag", False), FieldSpec("obj", None))
NAMES = tuple(f.name for f in SCHEMA)

#: int64-safe scalars (the numpy backend stores int columns as int64).
ints = st.integers(min_value=-(2 ** 62), max_value=2 ** 62)
floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
objs = st.one_of(st.none(), st.booleans(),
                 st.frozensets(st.integers(0, 5), max_size=3))

row_dicts = st.fixed_dictionaries(
    {"i": ints, "f": floats, "flag": st.booleans(), "obj": objs})
row_lists = st.lists(row_dicts, min_size=1, max_size=64)


def make_pair(rows=()):
    """The same content in both backends."""
    ref, cand = SoATable("t", SCHEMA), NumpyTable("t", SCHEMA)
    for row in rows:
        ref.add(**row)
        cand.add(**row)
    return ref, cand


def assert_tables_equal(ref, cand):
    assert len(ref) == len(cand)
    for name in NAMES:
        ref_col = list(ref.col(name))
        cand_col = cand.column(name).tolist()
        assert ref_col == cand_col, name
        for r, c in zip(ref_col, cand_col):
            assert type(r) is type(c), (name, r, c)


class TestLockstep:
    @given(rows=row_lists, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_add_gather_matches(self, rows, data):
        ref, cand = make_pair(rows)
        assert_tables_equal(ref, cand)
        idxs = data.draw(st.lists(
            st.integers(0, len(rows) - 1), max_size=2 * len(rows)))
        names = data.draw(st.lists(st.sampled_from(NAMES),
                                   min_size=1, unique=True))
        assert ref.gather(idxs, names) == cand.gather(idxs, names)

    @given(rows=row_lists, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_scatter_matches(self, rows, data):
        ref, cand = make_pair(rows)
        idxs = data.draw(st.lists(
            st.integers(0, len(rows) - 1), max_size=len(rows), unique=True))
        name = data.draw(st.sampled_from(NAMES))
        value_of = {"i": ints, "f": floats, "flag": st.booleans(),
                    "obj": objs}[name]
        values = data.draw(st.lists(value_of, min_size=len(idxs),
                                    max_size=len(idxs)))
        ref.scatter(idxs, name, values)
        cand.scatter(idxs, name, values)
        assert_tables_equal(ref, cand)

    @given(rows=row_lists, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_get_set_slice_matches(self, rows, data):
        ref, cand = make_pair(rows)
        idx = data.draw(st.integers(0, len(rows) - 1))
        name = data.draw(st.sampled_from(NAMES))
        assert ref.get(idx, name) == cand.get(idx, name)
        assert type(ref.get(idx, name)) is type(cand.get(idx, name))
        assert ref.load_row(idx) == cand.load_row(idx)
        start = data.draw(st.integers(0, len(rows)))
        end = data.draw(st.integers(start, len(rows)))
        assert ref.slice(name, start, end) == cand.slice(name, start, end)
        ref.set(idx, "i", 42)
        cand.set(idx, "i", 42)
        assert_tables_equal(ref, cand)

    @given(count=st.integers(0, 3 * _INITIAL_CAPACITY))
    @settings(max_examples=40, deadline=None)
    def test_add_many_defaults_match(self, count):
        ref, cand = make_pair()
        assert list(ref.add_many(count)) == list(cand.add_many(count))
        assert_tables_equal(ref, cand)

    def test_growth_boundaries(self):
        """Appends that land exactly on / straddle capacity doublings."""
        ref, cand = make_pair()
        for k in range(4 * _INITIAL_CAPACITY + 1):
            row = {"i": k, "f": k / 2, "flag": bool(k % 2), "obj": None}
            assert ref.add(**row) == cand.add(**row)
        assert_tables_equal(ref, cand)
        # One more bulk append across another doubling.
        ref.add_many(3 * _INITIAL_CAPACITY)
        cand.add_many(3 * _INITIAL_CAPACITY)
        assert_tables_equal(ref, cand)

    def test_chunk_slices_match(self):
        n = CHUNK_ENTITIES + 7
        ref, cand = make_pair()
        ref.add_many(n)
        cand.add_many(n)
        for k in range(n):
            ref.set(k, "i", k)
            cand.set(k, "i", k)
        ref_pieces = [(s, e, cols["i"])
                      for s, e, cols in ref.chunk_slices(["i"])]
        cand_pieces = [(s, e, cols["i"])
                      for s, e, cols in cand.chunk_slices(["i"])]
        assert ref_pieces == cand_pieces
        assert ref.chunk_count() == cand.chunk_count()
        assert list(ref.chunks()) == list(cand.chunks())


class TestEdgeCases:
    def test_empty_index_gather_scatter(self):
        ref, cand = make_pair([{"i": 1, "f": 1.0, "flag": True, "obj": None}])
        assert ref.gather([], ["i", "f"]) == cand.gather([], ["i", "f"])
        ref.scatter([], "i", [])
        cand.scatter([], "i", [])
        assert_tables_equal(ref, cand)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [[-1], [3], [0, 7], [-5, 1]])
    def test_out_of_range_raises_uniformly(self, backend, bad):
        table = make_table(backend, "t", SCHEMA)
        table.add_many(3)
        with pytest.raises(ColumnIndexError):
            table.gather(bad, ["i"])
        with pytest.raises(ColumnIndexError):
            table.scatter(bad, "i", [0] * len(bad))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scatter_length_mismatch_raises(self, backend):
        table = make_table(backend, "t", SCHEMA)
        table.add_many(3)
        with pytest.raises(ConfigError):
            table.scatter([0, 1], "i", [5])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_field_raises(self, backend):
        table = make_table(backend, "t", SCHEMA)
        with pytest.raises(ConfigError):
            table.column("missing")
        with pytest.raises(ConfigError):
            table.add(missing=1)

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigError):
            make_table("fortran", "t", SCHEMA)

    def test_object_columns_store_identity(self):
        _, cand = make_pair()
        payload = {0, 1, 2}
        idx = cand.add(obj=payload)
        assert cand.get(idx, "obj") is payload
        cand.scatter([idx], "obj", [{"k": [1, 2]}])
        assert cand.get(idx, "obj") == {"k": [1, 2]}


class TestResidentWorkingSet:
    def test_resident_mutations_visible_through_bulk_api(self):
        ref, cand = make_pair(
            [{"i": k, "f": 0.0, "flag": False, "obj": None}
             for k in range(5)])
        view = cand.resident(["i", "flag"])
        assert view["i"] == [0, 1, 2, 3, 4]
        view["i"][2] = 99
        view["flag"][0] = True
        ref.set(2, "i", 99)
        ref.set(0, "flag", True)
        # Any array-level read flushes the lists back first.
        assert cand.get(2, "i") == 99
        assert cand.gather([0], ["flag"]) == {"flag": [True]}
        assert_tables_equal(ref, cand)

    def test_resident_view_is_cached(self):
        _, cand = make_pair(
            [{"i": 1, "f": 0.0, "flag": False, "obj": None}])
        a = cand.resident(["i", "f"])
        b = cand.resident(["i", "f"])
        assert a is b
        assert cand.resident(["i"])["i"] is a["i"]

    def test_pickle_flushes_resident_state(self):
        _, cand = make_pair(
            [{"i": k, "f": 0.0, "flag": False, "obj": None}
             for k in range(3)])
        cand.resident(["i"])["i"][1] = -7
        clone = pickle.loads(pickle.dumps(cand))
        assert clone.column("i").tolist() == [0, -7, 2]
        assert len(clone) == 3
        # The clone keeps working: growth and resident caching intact.
        clone.add_many(2 * _INITIAL_CAPACITY)
        assert clone.get(1, "i") == -7

    def test_unknown_field_in_resident_raises(self):
        _, cand = make_pair()
        with pytest.raises(ConfigError):
            cand.resident(["missing"])
