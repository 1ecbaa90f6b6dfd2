"""Differential suite for the zero-copy buffer protocol (DESIGN.md §14).

``words_view`` exports a predicate's packed little-endian word image as a
read-only buffer; ``from_buffer`` reconstructs a predicate over that
buffer *without copying* on the numpy backend.  Φ-plan handles rely on
the round trip being exact on every backend and on the reconstructed
predicates refusing writes — a kernel scribbling on a plan's statics
would corrupt every later candidate's reads.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predicates import Predicate, get_backend, using_backend
from repro.statespace import BoolDomain, IntRangeDomain, space_of

BACKENDS = ["int", "numpy"]


@st.composite
def space_and_mask(draw):
    shape = draw(st.integers(min_value=0, max_value=2))
    if shape == 0:
        space = space_of(a=BoolDomain(), b=BoolDomain(), c=BoolDomain())
    elif shape == 1:
        space = space_of(n=IntRangeDomain(0, 9), b=BoolDomain())
    else:
        # Straddles the 64-bit word boundary: two words, 66 states.
        space = space_of(n=IntRangeDomain(0, 32), b=BoolDomain())
    mask = draw(st.integers(min_value=0, max_value=(1 << space.size) - 1))
    return space, mask


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(space_and_mask(), st.sampled_from(BACKENDS))
    def test_from_buffer_inverts_words_view(self, sm, backend_name):
        space, mask = sm
        with using_backend(backend_name):
            p = Predicate(space, mask)
            q = Predicate.from_buffer(space, p.words_view())
            assert q == p
            assert q.mask == mask

    @settings(max_examples=60, deadline=None)
    @given(space_and_mask(), st.sampled_from(BACKENDS), st.sampled_from(BACKENDS))
    def test_round_trip_crosses_backends(self, sm, writer, reader):
        """A view exported under one backend reads back under another."""
        space, mask = sm
        with using_backend(writer):
            view = Predicate(space, mask).words_view()
        with using_backend(reader):
            assert Predicate.from_buffer(space, view).mask == mask

    @settings(max_examples=40, deadline=None)
    @given(space_and_mask())
    def test_view_is_the_packed_little_endian_image(self, sm):
        space, mask = sm
        n_words = (space.size + 63) // 64
        view = Predicate(space, mask).words_view()
        assert view.nbytes == n_words * 8
        assert int.from_bytes(bytes(view), "little") == mask

    def test_robdd_reads_buffers_too(self):
        space = space_of(a=BoolDomain(), b=BoolDomain(), c=BoolDomain())
        view = Predicate(space, 0b10110101).words_view()
        robdd = get_backend("robdd")
        p = Predicate.from_buffer(space, view, backend=robdd)
        assert p.mask == 0b10110101


class TestReadOnly:
    def test_views_are_read_only(self):
        space = space_of(n=IntRangeDomain(0, 32), b=BoolDomain())
        for backend_name in BACKENDS:
            with using_backend(backend_name):
                view = Predicate(space, (1 << 66) - 1).words_view()
            assert view.readonly

    def test_numpy_from_buffer_refuses_writes(self):
        np = pytest.importorskip("numpy")
        space = space_of(n=IntRangeDomain(0, 32), b=BoolDomain())
        numpy_backend = get_backend("numpy")
        view = Predicate(space, 0b1011).words_view()
        handle = numpy_backend.from_buffer(view, space.size)
        assert isinstance(handle, np.ndarray)
        assert not handle.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            handle[0] = 0

    def test_numpy_from_buffer_is_zero_copy(self):
        np = pytest.importorskip("numpy")
        space = space_of(n=IntRangeDomain(0, 32), b=BoolDomain())
        numpy_backend = get_backend("numpy")
        backing = bytearray(16)
        backing[0] = 0b101
        handle = numpy_backend.from_buffer(memoryview(backing), space.size)
        assert int(handle[0]) == 0b101
        # Same memory, not a copy: mutating the backing store shows
        # through the handle (the buffer's owner is the one writer).
        backing[0] = 0b111
        assert int(handle[0]) == 0b111
        assert np.shares_memory(
            handle, np.frombuffer(memoryview(backing), dtype="<u8")
        )

    def test_from_buffer_validates_length(self):
        space = space_of(a=BoolDomain(), b=BoolDomain())
        with pytest.raises(ValueError):
            Predicate.from_buffer(space, b"\x00" * 7)


class TestGroupTablesFromArrays:
    def test_numpy_group_table_from_array_is_read_only(self):
        np = pytest.importorskip("numpy")
        numpy_backend = get_backend("numpy")
        group_of = np.array([0, 0, 1, 1], dtype=np.int64)
        table, n_groups = numpy_backend.group_table_from_array(group_of, 2, 4)
        assert n_groups == 2
        assert not table.flags.writeable

    def test_int_backend_has_no_array_group_tables(self):
        with pytest.raises(NotImplementedError):
            get_backend("int").group_table_from_array([0, 1], 2, 2)
