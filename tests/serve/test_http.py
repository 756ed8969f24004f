"""Unit tests of the hand-rolled HTTP/1.1 parser and response writer."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.http import (
    HttpProtocolError,
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    json_payload,
    read_request,
    render_response,
)


def _parse(raw: bytes, **timeouts):
    """Feed raw bytes to the parser through a real StreamReader."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **timeouts)

    return asyncio.run(run())


def _stall(raw: bytes, **timeouts):
    """Parse ``raw`` from a peer that then goes quiet (no EOF)."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        return await read_request(reader, **timeouts)

    return asyncio.run(run())


class TestRequestParsing:
    def test_get_with_query_and_headers(self):
        request = _parse(
            b"GET /images/abc/plane/2?verbose=1&name=a%20b HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"X-Custom: value\r\n"
            b"\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/images/abc/plane/2"
        assert request.query == {"verbose": "1", "name": "a b"}
        assert request.headers["host"] == "localhost"
        assert request.headers["x-custom"] == "value"
        assert request.body == b""
        assert request.keep_alive

    def test_put_with_body(self):
        request = _parse(
            b"PUT /images?stripes=8 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
        )
        assert request.method == "PUT"
        assert request.body == b"hello"
        assert request.query == {"stripes": "8"}

    def test_connection_close_disables_keep_alive(self):
        request = _parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_eof_before_any_bytes_is_none(self):
        assert _parse(b"") is None

    def test_percent_escapes_in_path_are_decoded(self):
        request = _parse(b"GET /images/a%2Db HTTP/1.1\r\n\r\n")
        assert request.path == "/images/a-b"

    @pytest.mark.parametrize(
        "raw",
        [
            b"GARBAGE\r\n\r\n",  # not METHOD TARGET VERSION
            b"GET /x SPDY/3\r\n\r\n",  # unsupported protocol
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",  # no colon
            b"PUT /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",  # bad length
            b"PUT /x HTTP/1.1\r\nContent-Length: -4\r\n\r\n",  # negative
            b"PUT /x HTTP/1.1\r\n\r\n",  # body verb without a length
            b"GET /x HTTP/1.1\r\nHost",  # EOF inside headers
        ],
    )
    def test_malformed_requests_raise_protocol_errors(self, raw):
        with pytest.raises(HttpProtocolError):
            _parse(raw)

    def test_truncated_body_raises(self):
        with pytest.raises(HttpProtocolError):
            _parse(b"PUT /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort")

    def test_oversized_body_is_rejected_before_buffering(self):
        raw = b"PUT /x HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1)
        with pytest.raises(HttpProtocolError) as excinfo:
            _parse(raw)
        assert excinfo.value.status == 413

    def test_oversized_header_block_is_rejected(self):
        filler = b"X-Pad: " + b"a" * 1024 + b"\r\n"
        raw = b"GET /x HTTP/1.1\r\n" + filler * (MAX_HEADER_BYTES // len(filler) + 2)
        with pytest.raises(HttpProtocolError) as excinfo:
            _parse(raw + b"\r\n")
        assert excinfo.value.status == 431

    def test_transfer_encoding_is_refused(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            _parse(b"PUT /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert excinfo.value.status == 501


class TestReadTimeouts:
    """One timer per request bounds every read after the request line."""

    def test_stalled_header_block_is_a_408(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            _stall(b"GET /x HTTP/1.1\r\nHost: a\r\n", read_timeout=0.05)
        assert excinfo.value.status == 408
        assert "header block" in str(excinfo.value)

    def test_stalled_body_is_a_408(self):
        with pytest.raises(HttpProtocolError) as excinfo:
            _stall(b"PUT /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc", read_timeout=0.05)
        assert excinfo.value.status == 408
        assert "body" in str(excinfo.value)

    def test_idle_connection_lapses_like_an_eof(self):
        assert _stall(b"", idle_timeout=0.05, read_timeout=5.0) is None

    def test_the_budget_covers_the_whole_request_not_each_line(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"GET /x HTTP/1.1\r\n")

            async def trickle():
                for _ in range(6):  # each line well inside the budget
                    await asyncio.sleep(0.03)
                    reader.feed_data(b"X-Slow: 1\r\n")

            feeder = asyncio.ensure_future(trickle())
            try:
                return await read_request(reader, read_timeout=0.1)
            finally:
                feeder.cancel()

        with pytest.raises(HttpProtocolError) as excinfo:
            asyncio.run(run())
        assert excinfo.value.status == 408

    def test_outside_cancellation_stays_a_cancellation(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"GET /x HTTP/1.1\r\n")
            task = asyncio.ensure_future(
                read_request(reader, read_timeout=30.0, idle_timeout=30.0)
            )
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(run())

    def test_no_cancellation_is_left_behind(self):
        async def run():
            reader = asyncio.StreamReader()
            reader.feed_data(b"GET /x HTTP/1.1\r\nHost: a\r\n\r\n")
            request = await read_request(reader, read_timeout=0.02, idle_timeout=0.02)
            await asyncio.sleep(0.05)  # past both budgets: nothing may fire
            reader.feed_data(b"GET /y HTTP/1.1\r\n")  # then the peer stalls
            with pytest.raises(HttpProtocolError):
                await read_request(reader, read_timeout=0.02)
            await asyncio.sleep(0.01)  # after a 408 the task is still usable
            return request

        assert asyncio.run(run()).path == "/x"

    def test_bare_lf_lines_parse(self):
        request = _parse(b"GET /x HTTP/1.1\nHost: a\nX-Two: 2\n\n", read_timeout=5.0)
        assert request.headers == {"host": "a", "x-two": "2"}

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"GET /x HTTP/1.1\r\nX-Long: " + b"a" * (2**16 + 1) + b"\r\n\r\n", 431),
            (b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n", 400),
            (b"PUT /x HTTP/1.1\r\n\r\n", 411),
            (b"PUT /x HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1), 413),
            (b"PUT /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
        ],
    )
    def test_statuses_hold_with_timeouts_set(self, raw, status):
        with pytest.raises(HttpProtocolError) as excinfo:
            _parse(raw, read_timeout=5.0, idle_timeout=5.0)
        assert excinfo.value.status == status


class TestResponseRendering:
    def test_response_shape(self):
        body = json_payload({"status": "ok"})
        raw = render_response(200, body)
        head, _, payload = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 200 OK"
        assert "Content-Length: %d" % len(body) in lines
        assert "Content-Type: application/json" in lines
        assert "Connection: keep-alive" in lines
        assert payload == body

    def test_close_and_extra_headers(self):
        raw = render_response(
            404,
            b"{}",
            keep_alive=False,
            extra_headers=[("X-Trace", "t1")],
        )
        head = raw.split(b"\r\n\r\n")[0].decode("latin-1")
        assert "HTTP/1.1 404 Not Found" in head
        assert "Connection: close" in head
        assert "X-Trace: t1" in head
