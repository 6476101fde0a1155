"""The unified endpoint API: ServeAddress, the one spelling of an
``address`` argument, and the wire-protocol version handshake."""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.serve import (
    AsyncServeClient,
    ServeClient,
    ServerThread,
    SimServer,
    protocol,
)
from repro.serve.protocol import VERSION, ServeAddress, as_address

pytestmark = pytest.mark.serve


# ---------------------------------------------------------------------------
# ServeAddress parsing and rendering
# ---------------------------------------------------------------------------
class TestServeAddress:
    def test_parse_host_port(self):
        addr = ServeAddress.parse("10.0.0.2:7077")
        assert (addr.host, addr.port, addr.path) == ("10.0.0.2", 7077, None)
        assert not addr.is_unix
        assert str(addr) == "10.0.0.2:7077"

    def test_parse_bare_port_and_bare_host(self):
        assert ServeAddress.parse(":7077") == ServeAddress(port=7077)
        assert ServeAddress.parse("example.org") == \
            ServeAddress(host="example.org")

    def test_parse_unix(self):
        addr = ServeAddress.parse("unix:/tmp/serve.sock")
        assert addr.is_unix and addr.path == "/tmp/serve.sock"
        assert str(addr) == "unix:/tmp/serve.sock"
        with pytest.raises(ValueError):
            ServeAddress.parse("unix:")

    def test_round_trip(self):
        for text in ("127.0.0.1:9999", "unix:/x/y.sock"):
            assert str(ServeAddress.parse(text)) == text

    def test_with_port_and_validation(self):
        assert ServeAddress(port=0).with_port(81).port == 81
        with pytest.raises(ValueError):
            ServeAddress(port=-1)


class TestLegacyShim:
    """Named for the host/port shim this class used to pin; what is
    left is its replacement's contract: one ``address`` argument."""

    def test_string_and_address_pass_through_silently(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert as_address("host:1") == ServeAddress(host="host", port=1)
            addr = ServeAddress(port=5)
            assert as_address(addr) is addr
            assert as_address(None) == ServeAddress()

    def test_mixing_address_and_legacy_is_an_error(self):
        # The separate host/port spellings are gone, not deprecated.
        with pytest.raises(TypeError):
            as_address(ServeAddress(port=5), 7077, caller="test")
        with pytest.raises(TypeError):
            as_address(("127.0.0.1", 7077), caller="test")
        with pytest.raises(TypeError):
            SimServer(workers=1, host="127.0.0.1", port=0)
        with pytest.raises(TypeError):
            ServeClient("127.0.0.1", 7077)


# ---------------------------------------------------------------------------
# unix-socket transport: same protocol, no TCP
# ---------------------------------------------------------------------------
def test_unix_socket_end_to_end(tmp_path):
    addr = ServeAddress(path=str(tmp_path / "serve.sock"))
    with ServerThread(workers=1, address=addr) as srv:
        assert srv.address.is_unix
        with ServeClient(srv.address) as client:
            response = client.submit("sleep", {"seconds": 0.01, "tag": "ux"})
            assert response["status"] == "ok"

    async def go():
        client = await AsyncServeClient.connect(addr)
        try:
            return await client.health()
        finally:
            await client.close()

    with ServerThread(workers=1, address=addr) as srv2:
        assert asyncio.run(go())["status"] == "ok"


# ---------------------------------------------------------------------------
# protocol versioning
# ---------------------------------------------------------------------------
class TestProtocolVersion:
    def test_clients_stamp_v_and_server_reports_it(self):
        with ServerThread(workers=1) as srv:
            with ServeClient(srv.address) as client:
                health = client.health()
        assert health["protocol_v"] == VERSION

    def test_version_mismatch_is_a_structured_one_line_error(self):
        with ServerThread(workers=1) as srv:
            with socket.create_connection((srv.host, srv.port)) as sock:
                sock.sendall(protocol.encode(
                    {"op": "health", "id": 1, "v": 99}))
                line = sock.makefile("rb").readline()
        response = protocol.decode(line)
        assert response == {
            "status": "error",
            "error": f"protocol version mismatch: server speaks "
                     f"v{VERSION}, request carried v=99",
            "v": VERSION,
            "client_v": 99,
            "id": 1,
        }

    def test_missing_v_is_accepted_as_legacy(self):
        with ServerThread(workers=1) as srv:
            with socket.create_connection((srv.host, srv.port)) as sock:
                sock.sendall(protocol.encode({"op": "health", "id": 7}))
                line = sock.makefile("rb").readline()
        response = protocol.decode(line)
        assert response["status"] == "ok" and response["id"] == 7
