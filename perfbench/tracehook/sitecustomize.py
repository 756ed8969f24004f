"""Span recording for the benchmark's traced run.

This directory goes on ``PYTHONPATH`` only for a traced run, so Python
imports this module at start-up in every server process: the
``repro-serve`` proxy or server and each spawned shard worker.  It wraps
the public entry points of each layer (serve, store, core, engine,
imaging) and records one span per call: name, start, end, parent span
and the request id of the bound ``RequestContext``.  Spans stay in
memory and are written to ``$PERFBENCH_TRACE_DIR/spans-<pid>.json`` when
the process exits.

Two wrappers change what goes over the wire, and only while tracing:
every response carries its ``x-request-id``, so the benchmark can join
client latency to server spans, and under the proc topology the proxy
forwards its id to the worker, which adopts it.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time

_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

_spans = []
_ids = itertools.count(1)
_current = contextvars.ContextVar("perfbench_span", default=0)


def _request_id():
    context = _current_context()
    return context.request_id if context is not None else ""


def _current_context():
    return None  # replaced by repro.serve.deadline.current_context in _install


def _wrap(function, name, measure=None):
    """A span around every call; ``measure(args, kwargs, result)`` adds a number."""
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def traced_async(*args, **kwargs):
            span = next(_ids)
            token = _current.set(span)
            parent = token.old_value if token.old_value is not contextvars.Token.MISSING else 0
            started = time.monotonic_ns()
            result = None
            try:
                result = await function(*args, **kwargs)
                return result
            finally:
                _current.reset(token)
                extra = measure(args, kwargs, result) if measure else 0
                _spans.append(
                    (name, started, time.monotonic_ns(), span, parent,
                     _async_request_id(args, kwargs), extra)
                )

        return traced_async

    @functools.wraps(function)
    def traced(*args, **kwargs):
        span = next(_ids)
        token = _current.set(span)
        parent = token.old_value if token.old_value is not contextvars.Token.MISSING else 0
        started = time.monotonic_ns()
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            _current.reset(token)
            extra = measure(args, kwargs, result) if measure else 0
            _spans.append(
                (name, started, time.monotonic_ns(), span, parent, _request_id(), extra)
            )

    return traced


def _async_request_id(args, kwargs):
    """Async handlers run on the event loop, where no context is bound: read the argument."""
    for value in list(args) + list(kwargs.values()):
        request_id = getattr(value, "request_id", None)
        if isinstance(request_id, str):
            return request_id
    return ""


def _patch_function(module, attribute, name, measure=None):
    """Replace a module function everywhere it was imported by name."""
    original = getattr(module, attribute)
    wrapped = _wrap(original, name, measure)
    for loaded in list(sys.modules.values()):
        if loaded is not None and getattr(loaded, attribute, None) is original:
            setattr(loaded, attribute, wrapped)


def _patch_method(cls, attribute, name, measure=None):
    if attribute in cls.__dict__:
        setattr(cls, attribute, _wrap(cls.__dict__[attribute], name, measure))


def _samples_decoded(args, kwargs, result):
    # decode_payload(payload, width, height, config, engine=...)
    return int(args[1]) * int(args[2])


def _samples_encoded(args, kwargs, result):
    # encode_payload(image, config, engine=...)
    return int(args[0].width) * int(args[0].height)


def _samples_modelled(args, kwargs, result):
    # model_image(px, config): px is the cell's 2-D sample array
    return int(args[0].size)


def _bytes_read(args, kwargs, result):
    return sum(len(buffer) for buffer in result) if result is not None else 0


def _install():
    global _current_context
    import repro.core.bitstream as bitstream
    import repro.core.cellgrid as cellgrid
    import repro.core.decoder as decoder
    import repro.core.encoder as encoder
    import repro.fast.rowmodel as rowmodel
    import repro.imaging.pnm as pnm
    import repro.serve.app as app
    import repro.serve.proxy as proxy
    import repro.serve.worker  # noqa: F401
    import repro.store.backends as backends
    import repro.store.catalog as catalog
    import repro.store.store as store
    from repro.core.interface import engine_names, get_engine
    from repro.serve.deadline import current_context

    _current_context = current_context
    # Every engine is loaded before patching: one that get_engine imported
    # later would bind the unwrapped model_image by name.
    for engine in engine_names():
        get_engine(engine)
    # serve
    _patch_method(app.ImageService, "get_region", "serve.service")
    _patch_method(app.ImageService, "put_image", "serve.service")
    _patch_method(app.ReproServer, "_dispatch", "serve.dispatch")
    _patch_method(proxy.RemoteShard, "request", "serve.proxy_forward")
    # store
    _patch_method(store.ImageStore, "get_region", "store.get_region")
    _patch_method(store.ImageStore, "put_stream", "store.put_stream")
    _patch_method(store.ImageStore, "header", "store.header")
    for backend in (backends.FilesystemBackend, backends.SQLiteBackend):
        _patch_method(backend, "read_ranges", "store.backend_read", _bytes_read)
        _patch_method(backend, "put", "store.backend_put")
    for name in dir(catalog):
        cls = getattr(catalog, name)
        if isinstance(cls, type) and issubclass(cls, catalog.Catalog):
            _patch_method(cls, "record_put", "store.catalog_put")
    # core
    _patch_function(bitstream, "verify_component_cell", "core.crc")
    _patch_function(cellgrid, "assemble_selection", "core.assemble")
    _patch_function(cellgrid, "encode_grid", "core.encode_grid")
    # engine
    _patch_function(decoder, "decode_payload", "engine.decode", _samples_decoded)
    _patch_function(encoder, "encode_payload", "engine.encode", _samples_encoded)
    _patch_function(rowmodel, "model_image", "engine.frontend", _samples_modelled)
    # imaging
    _patch_method(cellgrid.DecodedSelection, "image", "imaging.image")
    _patch_function(app, "image_to_netpbm", "imaging.render")
    _patch_function(pnm, "read_image", "imaging.parse")

    _echo_request_ids(app, proxy)


def _echo_request_ids(app, proxy):
    dispatch = app.ReproServer._dispatch
    start_dispatch = app.ReproServer._start_dispatch
    forward_headers = proxy.RemoteShard.__dict__["_forward_headers"].__func__

    async def dispatch_with_id(self, request, context):
        status, body, content_type, extra = await dispatch(self, request, context)
        extra.append(("x-request-id", context.request_id))
        return status, body, content_type, extra

    def adopt_forwarded_id(self, request, host):
        outcome = start_dispatch(self, request, host)
        context = outcome[-1]
        forwarded = request.headers.get("x-request-id")
        if context is not None and forwarded:
            context.request_id = forwarded
        return outcome

    def forward_id(context):
        headers = forward_headers(context)
        if context is not None and context.request_id:
            headers = headers + [("x-request-id", context.request_id)]
        return headers

    app.ReproServer._dispatch = dispatch_with_id
    app.ReproServer._start_dispatch = adopt_forwarded_id
    proxy.RemoteShard._forward_headers = staticmethod(forward_id)


def _dump():
    rows = [
        {"name": n, "start": s, "end": e, "id": i, "parent": p, "request": r, "extra": x}
        for n, s, e, i, p, r, x in list(_spans)
    ]
    spec = getattr(sys.modules.get("__main__"), "__spec__", None)
    path = os.path.join(_DIR, "spans-%d.json" % os.getpid())
    with open(path + ".part", "w") as handle:
        json.dump({"pid": os.getpid(), "main": spec.name if spec else "", "spans": rows}, handle)
    os.replace(path + ".part", path)


if _DIR:
    _install()
    atexit.register(_dump)
