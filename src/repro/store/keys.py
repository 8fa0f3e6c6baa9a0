"""Cache-key construction for the content-addressed artifact store.

Every pipeline stage output (Name profile + TRG, placement map, per-run
simulation statistics) is a pure function of its inputs, so each store
entry is keyed by a SHA-256 digest over a *canonical JSON* rendering of
those inputs:

* the **trace fingerprint** — a digest of the recorded access columns
  and lifetime ops, standing in for "which workload run";
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
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from ..cache.config import CacheConfig

#: Bumped on breaking store-layout changes; folded into every salt.
STORE_FORMAT = 1

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


def _encode_op(position: int, kind: int, payload) -> list:
    """JSON-safe rendering of one recorded lifetime/compute op."""
    from ..trace.events import ObjectInfo

    if isinstance(payload, ObjectInfo):
        payload = [
            payload.obj_id,
            int(payload.category),
            payload.size,
            payload.symbol,
            payload.decl_index,
            payload.alloc_name,
        ]
    elif isinstance(payload, tuple):  # alloc: (ObjectInfo, return_addresses)
        info, return_addresses = payload
        payload = [
            [
                info.obj_id,
                int(info.category),
                info.size,
                info.symbol,
                info.decl_index,
                info.alloc_name,
            ],
            list(return_addresses),
        ]
    return [position, kind, payload]


def trace_fingerprint(trace) -> str:
    """Content digest of one recorded trace (columns + lifetime ops).

    The fingerprint covers the five access columns byte-for-byte, every
    recorded op (including compute batches), and the end marker, so two
    runs fingerprint equal exactly when a consumer of the recording
    could not tell them apart.  Memoized on the recorder.
    """
    cached = getattr(trace, "_fingerprint", None)
    if cached is not None and cached[0] == len(trace):
        return cached[1]
    hasher = hashlib.sha256()
    for column in trace.columns():
        hasher.update(np.ascontiguousarray(column).tobytes())
    ops = [_encode_op(*op) for op in trace.ops]
    hasher.update(
        canonical_json(
            {
                "ops": ops,
                "compute_instructions": trace.compute_instructions,
                "max_stack_depth": trace.max_stack_depth,
                "ended": trace.ended,
            }
        ).encode("utf-8")
    )
    fingerprint = hasher.hexdigest()
    trace._fingerprint = (len(trace), fingerprint)
    return fingerprint
