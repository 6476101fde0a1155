"""MPI_Info semantics — usable before initialization (paper §III-B5)."""

import pytest

from repro.ompi.errors import MPIErrArg
from repro.ompi.info import MAX_INFO_KEY, MAX_INFO_VAL, Info


class TestBasics:
    def test_set_get(self):
        info = Info()
        info.set("mpi_assert_no_any_tag", "true")
        assert info.get("mpi_assert_no_any_tag") == "true"

    def test_get_missing_returns_none(self):
        assert Info().get("nope") is None

    def test_overwrite(self):
        info = Info()
        info.set("k", "a")
        info.set("k", "b")
        assert info.get("k") == "b"
        assert list(info.items()) == [("k", "b")]


class TestLimitsAndFree:
    def test_key_length_limit(self):
        with pytest.raises(MPIErrArg):
            Info().set("k" * (MAX_INFO_KEY + 1), "v")

    def test_value_length_limit(self):
        with pytest.raises(MPIErrArg):
            Info().set("k", "v" * (MAX_INFO_VAL + 1))

    def test_empty_key_rejected(self):
        with pytest.raises(MPIErrArg):
            Info().set("", "v")

    def test_non_string_value_rejected(self):
        with pytest.raises(MPIErrArg):
            Info().set("k", 42)

    def test_use_after_free(self):
        info = Info({"k": "v"})
        info.free()
        for op in (lambda: info.get("k"), lambda: info.set("k", "v"),
                   lambda: info.items(), lambda: info.free()):
            with pytest.raises(MPIErrArg):
                op()


def test_info_works_without_any_mpi_state():
    """The whole point: Info needs no initialized library."""
    info = Info()
    info.set("thread_level", "MPI_THREAD_MULTIPLE")
    assert dict(info.items()) == {"thread_level": "MPI_THREAD_MULTIPLE"}
    info.free()
