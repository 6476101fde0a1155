"""Error classes and error handlers (pre-init constructible)."""

import pytest

from repro.ompi.errors import (
    ERR_TRUNCATE,
    ERRORS_ARE_FATAL,
    ERRORS_RETURN,
    Errhandler,
    MPIAbort,
    MPIErrArg,
    MPIErrComm,
    MPIError,
    MPIErrTruncate,
)


class TestErrorClasses:
    def test_errclass_attached(self):
        assert MPIErrTruncate().errclass == ERR_TRUNCATE

    def test_message_included(self):
        err = MPIErrComm("bad handle")
        assert "MPI_ERR_COMM" in str(err)
        assert "bad handle" in str(err)

    def test_hierarchy(self):
        assert issubclass(MPIErrArg, MPIError)
        assert isinstance(MPIErrTruncate(), MPIError)


class TestErrhandlers:
    def test_fatal_raises_abort(self):
        with pytest.raises(MPIAbort):
            ERRORS_ARE_FATAL.invoke(None, MPIErrComm("x"))

    def test_return_reraises_original(self):
        with pytest.raises(MPIErrComm):
            ERRORS_RETURN.invoke(None, MPIErrComm("x"))

    def test_custom_handler_callback_runs_then_raises(self):
        seen = []
        handler = Errhandler(lambda origin, err: seen.append((origin, err.errclass)))
        with pytest.raises(MPIErrTruncate):
            handler.invoke("the-comm", MPIErrTruncate("overflow"))
        assert seen == [("the-comm", ERR_TRUNCATE)]

    def test_constructible_before_init(self):
        """Paper §III-B5: errhandler creation requires no library state."""
        h = Errhandler(name="pre-init")
        assert h.name == "pre-init" and h.fn is None
