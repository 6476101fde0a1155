"""Payload sizing."""

import numpy as np

from repro.ompi.datatype import sizeof_payload


class TestSizeofPayload:
    def test_numpy_nbytes(self):
        arr = np.zeros(100, dtype=np.float64)
        assert sizeof_payload(arr) == 800

    def test_bytes(self):
        assert sizeof_payload(b"12345") == 5

    def test_none_is_empty(self):
        assert sizeof_payload(None) == 0

    def test_scalars(self):
        assert sizeof_payload(1) == 8
        assert sizeof_payload(1.5) == 8

    def test_containers_recursive(self):
        assert sizeof_payload([1, 2, 3]) == 8 + 24
        assert sizeof_payload({"k": 1.0}) >= 9

    def test_unknown_object_default(self):
        class Thing:
            pass

        assert sizeof_payload(Thing()) == 64
