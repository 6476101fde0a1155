"""Unit tests for PMIx identifiers and the key-value datastore."""

import pytest

from repro.pmix.datastore import Datastore
from repro.pmix.types import (
    PMIX_ERR_TIMEOUT,
    PMIX_RANK_WILDCARD,
    PMIX_SUCCESS,
    PmixError,
    PmixInfo,
    PmixProc,
    info_dict,
    lookup_info,
    status_name,
)
from repro.pmix.wire import wire_size


class TestPmixProc:
    def test_equality_and_hash(self):
        a = PmixProc("job", 3)
        b = PmixProc("job", 3)
        assert a == b and hash(a) == hash(b)
        assert a != PmixProc("job", 4)
        assert a != PmixProc("other", 3)

    def test_ordering(self):
        procs = [PmixProc("job", 2), PmixProc("job", 0), PmixProc("a", 5)]
        assert sorted(procs) == [PmixProc("a", 5), PmixProc("job", 0), PmixProc("job", 2)]

    def test_not_equal_to_other_types(self):
        assert PmixProc("job", 1) != ("job", 1)

    def test_str_wildcard(self):
        assert str(PmixProc("ns", PMIX_RANK_WILDCARD)) == "ns:*"
        assert str(PmixProc("ns", 7)) == "ns:7"

    def test_usable_as_dict_key(self):
        d = {PmixProc("j", i): i for i in range(100)}
        assert d[PmixProc("j", 42)] == 42


class TestStatus:
    def test_status_names(self):
        assert status_name(PMIX_SUCCESS) == "PMIX_SUCCESS"
        assert status_name(PMIX_ERR_TIMEOUT) == "PMIX_ERR_TIMEOUT"
        assert "9999" in status_name(9999)

    def test_error_carries_status(self):
        err = PmixError(PMIX_ERR_TIMEOUT, "too slow")
        assert err.status == PMIX_ERR_TIMEOUT
        assert "too slow" in str(err)


class TestInfoHelpers:
    def test_info_dict_from_pairs(self):
        assert info_dict([("a", 1), ("b", 2)]) == {"a": 1, "b": 2}

    def test_info_dict_from_pmixinfo(self):
        assert info_dict([PmixInfo("k", "v")]) == {"k": "v"}

    def test_info_dict_from_dict_copies(self):
        src = {"x": 1}
        out = info_dict(src)
        out["y"] = 2
        assert "y" not in src

    def test_info_dict_none(self):
        assert info_dict(None) == {}

    def test_lookup_info(self):
        assert lookup_info([("k", 5)], "k") == 5
        assert lookup_info([("k", 5)], "missing", "dflt") == "dflt"


class TestDatastore:
    def test_put_get_rank_data(self):
        ds = Datastore()
        p = PmixProc("ns", 0)
        ds.put(p, "key", "value")
        assert ds.get(p, "key") == (True, "value")

    def test_get_missing(self):
        ds = Datastore()
        assert ds.get(PmixProc("ns", 0), "nope") == (False, None)

    def test_job_level_fallback(self):
        ds = Datastore()
        ds.put_job("ns", "size", 64)
        # Any rank in the namespace sees job-level data.
        assert ds.get(PmixProc("ns", 5), "size") == (True, 64)

    def test_rank_data_shadows_job_data(self):
        ds = Datastore()
        ds.put_job("ns", "k", "job")
        ds.put(PmixProc("ns", 1), "k", "rank")
        assert ds.get(PmixProc("ns", 1), "k") == (True, "rank")
        assert ds.get(PmixProc("ns", 2), "k") == (True, "job")

    def test_namespaces_isolated(self):
        ds = Datastore()
        ds.put(PmixProc("a", 0), "k", 1)
        assert ds.get(PmixProc("b", 0), "k") == (False, None)

    def test_rank_blob_and_merge(self):
        ds1, ds2 = Datastore(), Datastore()
        p = PmixProc("ns", 0)
        ds1.put(p, "x", 1)
        ds1.put(p, "y", 2)
        ds2.merge_blob(p, ds1.rank_blob(p))
        assert ds2.get(p, "x") == (True, 1)
        assert ds2.get(p, "y") == (True, 2)

    def test_rank_blob_is_a_copy(self):
        ds = Datastore()
        p = PmixProc("ns", 0)
        ds.put(p, "x", 1)
        blob = ds.rank_blob(p)
        blob["x"] = 99
        assert ds.get(p, "x") == (True, 1)

    def test_drop_namespace(self):
        ds = Datastore()
        ds.put(PmixProc("ns", 0), "k", 1)
        ds.drop_namespace("ns")
        assert ds.get(PmixProc("ns", 0), "k") == (False, None)

    def test_has(self):
        ds = Datastore()
        p = PmixProc("ns", 0)
        assert not ds.has(p, "k")
        ds.put(p, "k", None)
        assert ds.has(p, "k")

    def test_size_estimate_grows(self):
        ds = Datastore()
        p = PmixProc("ns", 0)
        base = ds.size_estimate()
        ds.put(p, "key", "x" * 1000)
        assert ds.size_estimate() >= base + 1000


class TestValueSize:
    @pytest.mark.parametrize(
        "value,minimum",
        [(b"12345", 5), ("abc", 3), (7, 8), ([1, 2, 3], 24), ({"k": 1}, 9)],
    )
    def test_sizes(self, value, minimum):
        assert wire_size(value) >= minimum
