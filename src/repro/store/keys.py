"""Cache-key construction for the content-addressed artifact store.

Every pipeline stage output (Name profile + TRG, placement map, per-run
simulation statistics) is a pure function of its inputs, so each store
entry is keyed by a SHA-256 digest over a *canonical JSON* rendering of
those inputs:

* the **trace fingerprint** — a digest of the recorded access columns
  and lifetime ops, standing in for "which workload run" (see
  :func:`fingerprint_with_ops`);
* the **cache geometry** — always the explicit ``(size, line_size,
  associativity)`` triple, never the config object itself (mirroring
  :func:`repro.experiments.common._config_key`);
* the **stage parameters** — profiler knobs, placer options, resolver
  policy, classification flags;
* the **code-version salt** — a digest over the package's own source,
  so any code change invalidates every prior entry wholesale.

Canonical JSON sorts keys, forbids NaN, and coerces numpy scalars to
their Python equivalents, so a key built from freshly computed values and
one built from round-tripped JSON are byte-identical.

A trace's ops are the one input too large to render through
:func:`canonical_json` value by value: :func:`ops_json` writes the same
canonical text directly from the recorder's op tuples, and that single
encoding serves both the fingerprint and the trace's ``.ops`` file in
the store.  ``tests/goldens/trace_fingerprints.json`` pins the result
for the paper's traces.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from ..cache.config import CacheConfig
from ..trace.buffer import _OP_ALLOC, _OP_OBJECT

#: Bumped on breaking store-layout changes; folded into every salt.
STORE_FORMAT = 2

#: Environment override for the code-version salt (tests, pinned runs).
SALT_ENV = "REPRO_CACHE_SALT"

_code_salt_cache: str | None = None


def _jsonable(value):
    """Coerce numpy scalars so canonical JSON is stable across engines."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"not canonically serializable: {value!r}")


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, tight separators, no NaN."""
    return json.dumps(
        value,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        default=_jsonable,
    )


def digest_bytes(data: bytes) -> str:
    """Hex SHA-256 of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def digest_json(value) -> str:
    """Hex SHA-256 of the canonical JSON rendering of ``value``."""
    return digest_bytes(canonical_json(value).encode("utf-8"))


def code_salt() -> str:
    """Digest of the ``repro`` package source: the invalidation salt.

    Hashes every ``.py`` file under the package directory (sorted by
    relative path) together with :data:`STORE_FORMAT`, so editing any
    pipeline code — or bumping the store format — orphans all prior
    entries rather than risking a stale hit.  ``REPRO_CACHE_SALT`` in
    the environment overrides the computed value (used by tests to
    simulate version skew without touching source files).
    """
    override = os.environ.get(SALT_ENV)
    if override:
        return override
    global _code_salt_cache
    if _code_salt_cache is None:
        package_root = Path(__file__).resolve().parent.parent
        hasher = hashlib.sha256()
        hasher.update(f"store-format:{STORE_FORMAT}".encode())
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(str(path.relative_to(package_root)).encode())
            hasher.update(path.read_bytes())
        _code_salt_cache = hasher.hexdigest()
    return _code_salt_cache


def config_fields(config: CacheConfig | None) -> dict | None:
    """Explicit geometry triple for a key (None stays None)."""
    if config is None:
        return None
    return {
        "size": int(config.size),
        "line_size": int(config.line_size),
        "associativity": int(config.associativity),
    }


def store_key(kind: str, fields: dict) -> str:
    """Digest identifying one store entry: kind + salt + key fields."""
    return digest_json({"kind": kind, "salt": code_salt(), "fields": fields})


# -- trace fingerprints -------------------------------------------------------


def _info_text(info) -> str:
    """Canonical JSON of one :class:`~repro.trace.events.ObjectInfo`.

    A plain-string ``symbol`` goes through the C string quoter and an
    int ``alloc_name`` is written as is; anything else (``None``) goes
    through :func:`json.dumps`.
    """
    symbol = info.symbol
    alloc_name = info.alloc_name
    return (
        f"[{info.obj_id},{int(info.category)},{info.size},"
        f"{_quote(symbol) if type(symbol) is str else json.dumps(symbol)},"
        f"{info.decl_index},"
        f"{alloc_name if type(alloc_name) is int else json.dumps(alloc_name)}]"
    )


def ops_json(trace) -> bytes:
    """The canonical JSON document of a trace's ops and counters.

    Byte-identical to the UTF-8 encoding of ``canonical_json`` of
    ``{"compute_instructions", "ended", "max_stack_depth", "ops"}`` with
    each op rendered as ``[position, kind, payload]`` (an object's
    payload as its six fields; an allocation's as ``[fields,
    return_addresses]``), but written directly: integer payloads —
    compute batches, frees and stack depths, the bulk of every trace —
    go through one f-string each, and only an object's string/``None``
    fields need quoting.  These bytes are what :func:`trace_fingerprint`
    hashes and what the store persists verbatim as a trace's ``.ops``
    file.
    """
    # Stream into one buffer rather than joining a list: ~10^5 live
    # short strings per trace fragment the small-object arenas and
    # raise the process's peak RSS.
    out = io.StringIO()
    write = out.write
    write(
        f'{{"compute_instructions":{trace.compute_instructions},'
        f'"ended":{"true" if trace.ended else "false"},'
        f'"max_stack_depth":{trace.max_stack_depth},'
        f'"ops":['
    )
    separator = ""
    for position, kind, payload in trace.ops:
        if kind == _OP_OBJECT:
            write(f"{separator}[{position},{kind},{_info_text(payload)}]")
        elif kind == _OP_ALLOC:
            info, return_addresses = payload
            addresses = ",".join(map(str, return_addresses))
            write(f"{separator}[{position},{kind},[{_info_text(info)},[{addresses}]]]")
        else:
            write(f"{separator}[{position},{kind},{payload}]")
        separator = ","
    write("]}")
    return out.getvalue().encode("utf-8")


def ops_member(document: bytes) -> bytes:
    """The ``"ops"`` array of an :func:`ops_json` document, as bytes.

    ``"ops"`` is the document's last member and no member before it
    holds a string, so the array is everything after its key up to the
    closing brace.
    """
    return document[document.index(b'"ops":') + len(b'"ops":') : -1]


def fingerprint_with_ops(trace) -> tuple[str, bytes]:
    """``(fingerprint, ops document)`` of one trace from a single encoding.

    The fingerprint is SHA-256 over the five access columns
    byte-for-byte followed by :func:`ops_json`, so two runs fingerprint
    equal exactly when a consumer of the recording could not tell them
    apart.  The fingerprint is memoized on the recorder; the document
    is not (it runs to megabytes per trace), so callers that persist it
    take it from here.
    """
    hasher = hashlib.sha256()
    for column in trace.columns():
        hasher.update(np.ascontiguousarray(column).tobytes())
    document = ops_json(trace)
    hasher.update(document)
    fingerprint = hasher.hexdigest()
    trace._fingerprint = (len(trace), fingerprint)
    return fingerprint, document


def memoized_fingerprint(trace) -> str | None:
    """The fingerprint already computed for ``trace``'s events, if any."""
    cached = getattr(trace, "_fingerprint", None)
    if cached is not None and cached[0] == len(trace):
        return cached[1]
    return None


def trace_fingerprint(trace) -> str:
    """Content digest of one recorded trace (columns + lifetime ops).

    See :func:`fingerprint_with_ops`.  Memoized on the recorder.
    """
    cached = memoized_fingerprint(trace)
    if cached is not None:
        return cached
    return fingerprint_with_ops(trace)[0]
