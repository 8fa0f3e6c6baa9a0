"""The persistent, content-addressed artifact store.

Entries live under ``<root>/objects/<kind>/<digest[:2]>/<digest>.json``,
where the digest is :func:`repro.store.keys.store_key` over the stage's
key fields plus the code-version salt.  Each file is one JSON document,
an envelope whose payload is its last member::

    {"format":2,"kind":"...","salt":"...","fields":{...},
     "payload_sha256":"...","payload":{...}}

:meth:`ArtifactStore.put` renders the payload once as canonical JSON
(:func:`~repro.store.keys.canonical_json`), hashes exactly those bytes
and writes them verbatim after a canonical header.  A read parses the
file once, re-renders the header from the parsed fields to find where
the payload's bytes begin, and checks one SHA-256 over that byte range:
it never re-encodes the payload, and a payload re-serialized in any
other way (same value, different bytes) fails the check.

Writes are atomic (temp file + ``os.replace``, the temp name unique per
writing thread), so a crashed run can leave at worst an orphaned temp
file, never a half-written entry under its final name.  Reads are
*defensive*: a truncated file, undecodable JSON, a payload that fails
its embedded digest, or an envelope from another store format or code
version are all treated as a miss — the entry is deleted and the caller
recomputes and rewrites, mirroring how the trace layer degrades on
:class:`~repro.trace.sinks.TraceError` rather than crashing a sweep.

Each instance also keeps a write-through record of the trace and
trace-meta entries it wrote or validated (:meth:`ArtifactStore.known`),
so an idempotent re-save of a trace the process already persisted can
skip the read altogether.

Every consultation is mirrored to the observability layer: ``store.hit``
/ ``store.miss`` / ``store.corrupt`` count lookups, ``store.write``
counts inserts, and ``store.bytes`` accumulates bytes written.  The
instance keeps the same tallies locally so a CLI run can summarize cache
effectiveness even with no telemetry registry installed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ..obs import telemetry as obs
from .keys import STORE_FORMAT, canonical_json, code_salt, digest_bytes, store_key

#: Default store location when neither ``--cache-dir`` nor the
#: ``REPRO_CACHE_DIR`` environment variable names one.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Environment variable naming the store root for CLI runs.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Suffixes of the two files each persisted trace keeps under
#: ``traces/`` (see :mod:`repro.store.traces`): its columns and its ops.
TRACE_DATA_SUFFIX = ".trace"
TRACE_OPS_SUFFIX = ".ops"
TRACE_FILE_SUFFIXES = (TRACE_DATA_SUFFIX, TRACE_OPS_SUFFIX)

#: Kinds whose entries :meth:`ArtifactStore.known` records: the trace and
#: trace-meta entries that every persist call re-saves.  One pair per
#: distinct trace, so the record of a long-lived store (the serve
#: daemon keeps one per tenant) grows only with the traces it persists.
RECORDED_KINDS = frozenset({"trace", "trace-meta"})


def temp_path(path: Path) -> Path:
    """A temp name beside ``path``, unique to the calling process and thread.

    Writers stage into it and ``os.replace`` it over ``path``; two
    threads writing the same entry at once each get their own file.
    """
    stamp = f"{os.getpid()}.{threading.get_ident()}"
    return path.with_name(f".{path.name}.{stamp}.tmp")


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``."""
    temp = temp_path(path)
    try:
        temp.write_bytes(data)
        os.replace(temp, path)
    finally:
        try:
            temp.unlink()
        except OSError:
            pass


def _envelope_head(kind: str, salt: str, fields, payload_sha256: str) -> bytes:
    """The envelope's bytes up to where its payload's bytes begin."""
    return (
        f'{{"format":{STORE_FORMAT},"kind":{canonical_json(kind)},'
        f'"salt":{canonical_json(salt)},"fields":{canonical_json(fields)},'
        f'"payload_sha256":{canonical_json(payload_sha256)},"payload":'
    ).encode("utf-8")


def _is_current(envelope, salt: str) -> bool:
    """Whether a parsed envelope is of this store format and code version."""
    return (
        isinstance(envelope, dict)
        and envelope.get("format") == STORE_FORMAT
        and envelope.get("salt") == salt
    )


class StoreEntryError(Exception):
    """An on-disk entry failed validation (corrupt, stale, truncated)."""


@dataclass
class StoreCounters:
    """Per-instance lookup/write tallies (mirrored to ``obs`` counters)."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0
    bytes_written: int = 0


@dataclass
class StoreStats:
    """Aggregate picture of what is on disk (``repro cache stats``)."""

    root: str
    entries: int = 0
    bytes: int = 0
    stale: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    trace_files: int = 0
    trace_bytes: int = 0
    ops_files: int = 0
    ops_bytes: int = 0


class ProbeTally:
    """Scratch counters for one speculative warm-path probe.

    A *probe* is a batch of lookups whose outcome is only meaningful as a
    whole — e.g. :func:`repro.store.stages.try_load_experiment` reading
    five entries where a single miss abandons the warm path.  Tallying
    those lookups directly would double-count: the probe's misses are
    followed by the real get-or-compute consultations of the fallback
    path, and a failed probe's partial hits are re-read moments later.
    Under :meth:`ArtifactStore.probing` every lookup lands here instead;
    the caller calls :meth:`commit` only when the warm load succeeded,
    which folds the hits (and corrupt tallies) into the store's real
    counters exactly once.  Misses observed during a probe are never
    committed — the fallback path's own lookups account for them.
    """

    def __init__(self, store: "ArtifactStore"):
        self._store = store
        self.hits = 0
        self.misses = 0
        self.committed = False

    def commit(self) -> None:
        """Fold the probe's hits into the store counters (idempotent)."""
        if self.committed:
            return
        self.committed = True
        self._store.counters.hits += self.hits
        if self.hits:
            obs.count("store.hit", self.hits)


class ArtifactStore:
    """Content-addressed JSON artifact store rooted at one directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.counters = StoreCounters()
        # Probe stacks are per-thread: the serve daemon's request thread
        # validates (probing) while its dispatcher thread executes, and a
        # shared stack would misfile lookups across threads.
        self._probe_local = threading.local()
        # Entry path -> payload digest of every entry of a recorded kind
        # this instance wrote or validated (see :meth:`known`).
        self._known: dict[Path, str] = {}

    @property
    def _probes(self) -> list["ProbeTally"]:
        stack = getattr(self._probe_local, "stack", None)
        if stack is None:
            stack = self._probe_local.stack = []
        return stack

    # -- paths ---------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def traces_dir(self) -> Path:
        """Root of the persisted traces (``.trace`` and ``.ops`` files)."""
        return self.root / "traces"

    def entry_path(self, kind: str, digest: str) -> Path:
        return self.objects_dir / kind / digest[:2] / f"{digest}.json"

    # -- lookups -------------------------------------------------------------

    def key(self, kind: str, fields: dict) -> str:
        """Digest identifying the entry for ``fields`` under ``kind``."""
        return store_key(kind, fields)

    def get(self, kind: str, digest: str):
        """Payload for an entry, or ``None`` on miss/corruption.

        Any validation failure — unreadable file, truncated or
        undecodable JSON, wrong kind, a payload that fails its embedded
        digest, or a salt from a different code version — deletes the
        entry and reports a miss, so callers always fall back to
        recompute-and-rewrite.
        """
        path = self.entry_path(kind, digest)
        try:
            raw = path.read_bytes()
        except OSError:
            self._miss()
            return None
        try:
            payload, payload_sha256 = self._validate(raw, kind)
        except StoreEntryError:
            # Corruption is counted immediately even inside a probe: the
            # entry really was discarded, whatever the probe concludes.
            self.counters.corrupt += 1
            obs.count("store.corrupt")
            self._discard(path)
            self._miss()
            return None
        if kind in RECORDED_KINDS:
            self._known[path] = payload_sha256
        if self._probes:
            self._probes[-1].hits += 1
        else:
            self.counters.hits += 1
            obs.count("store.hit")
        try:
            os.utime(path)  # LRU recency for gc
        except OSError:
            pass
        return payload

    def _validate(self, raw: bytes, kind: str) -> tuple[object, str]:
        """``(payload, payload digest)`` of a well-formed current entry."""
        try:
            envelope = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StoreEntryError(f"undecodable entry: {exc}") from exc
        if not isinstance(envelope, dict) or envelope.get("kind") != kind:
            raise StoreEntryError("entry kind mismatch")
        if envelope.get("format") != STORE_FORMAT:
            raise StoreEntryError("store format mismatch")
        salt = code_salt()
        if envelope.get("salt") != salt:
            raise StoreEntryError("code-version salt mismatch")
        if "payload" not in envelope:
            raise StoreEntryError("entry has no payload")
        recorded = envelope.get("payload_sha256")
        if not isinstance(recorded, str):
            raise StoreEntryError("entry has no payload digest")
        head = _envelope_head(kind, salt, envelope.get("fields"), recorded)
        if not raw.startswith(head) or not raw.endswith(b"}"):
            raise StoreEntryError("envelope is not in canonical layout")
        if digest_bytes(raw[len(head) : -1]) != recorded:
            raise StoreEntryError("payload digest mismatch")
        return envelope["payload"], recorded

    def known(self, kind: str, digest: str) -> str | None:
        """Payload digest of an entry this process wrote or validated.

        ``None`` unless the entry's kind is one of :data:`RECORDED_KINDS`,
        this instance put or successfully read the entry, and its file
        is still in place.  Callers whose writes are idempotent use it
        to skip re-reading what they just persisted.
        Every discard through this instance (corruption, ``gc``,
        ``clear``) forgets the entry; a file rewritten in place by
        another process since is not detected here, only by the next
        ``get``.
        """
        path = self.entry_path(kind, digest)
        payload_sha256 = self._known.get(path)
        if payload_sha256 is not None and not path.exists():
            self._known.pop(path, None)
            return None
        return payload_sha256

    def _miss(self) -> None:
        if self._probes:
            self._probes[-1].misses += 1
            return
        self.counters.misses += 1
        obs.count("store.miss")

    @contextmanager
    def probing(self):
        """Divert lookup tallies to a :class:`ProbeTally` for the block.

        The yielded tally is the single source of truth for whether the
        probe's lookups ever count: call :meth:`ProbeTally.commit` after
        the block when (and only when) the warm load fully succeeded.
        Probes nest; lookups land in the innermost active tally.
        """
        tally = ProbeTally(self)
        self._probes.append(tally)
        try:
            yield tally
        finally:
            self._probes.pop()

    def _discard(self, path: Path) -> None:
        self._known.pop(path, None)
        try:
            path.unlink()
        except OSError:
            pass

    # -- inserts -------------------------------------------------------------

    def put(self, kind: str, digest: str, fields: dict, payload) -> None:
        """Write one entry atomically (idempotent: last write wins)."""
        body = canonical_json(payload).encode("utf-8")
        payload_sha256 = digest_bytes(body)
        data = b"".join(
            (_envelope_head(kind, code_salt(), fields, payload_sha256), body, b"}")
        )
        path = self.entry_path(kind, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, data)
        if kind in RECORDED_KINDS:
            self._known[path] = payload_sha256
        self.counters.writes += 1
        self.counters.bytes_written += len(data)
        obs.count("store.write")
        obs.count("store.bytes", len(data))

    def get_or_compute(self, kind: str, fields: dict, *, encode, decode, compute):
        """Serve a decoded artifact, computing and persisting on miss.

        ``decode`` failures on a hit are treated exactly like on-disk
        corruption: the entry is dropped and the value recomputed.
        """
        digest = self.key(kind, fields)
        payload = self.get(kind, digest)
        if payload is not None:
            try:
                return decode(payload)
            except Exception:
                self.counters.corrupt += 1
                obs.count("store.corrupt")
                self._discard(self.entry_path(kind, digest))
        value = compute()
        self.put(kind, digest, fields, encode(value))
        return value

    # -- maintenance ---------------------------------------------------------

    def _entries(self):
        if not self.objects_dir.is_dir():
            return
        for path in self.objects_dir.rglob("*.json"):
            if path.name.startswith("."):
                continue
            yield path

    def _trace_files(self, suffix: str):
        """Trace files under ``traces/`` ending in ``suffix``."""
        if not self.traces_dir.is_dir():
            return
        for path in self.traces_dir.rglob(f"*{suffix}"):
            if path.name.startswith("."):
                continue
            yield path

    def stats(self) -> StoreStats:
        """Walk the tree and summarize entry counts, bytes, staleness.

        Binary trace-column files (``traces/*.trace``) are tallied
        separately from the JSON entries — they dominate the on-disk
        bytes by orders of magnitude — and also appear in
        ``bytes_by_kind`` under the pseudo-kind ``trace-data``; their
        ``.ops`` files go to ``ops_files``/``ops_bytes`` and the
        pseudo-kind ``trace-ops``.
        """
        summary = StoreStats(root=str(self.root))
        salt = code_salt()
        for path in self._entries():
            kind = path.parent.parent.name
            summary.entries += 1
            summary.by_kind[kind] = summary.by_kind.get(kind, 0) + 1
            try:
                stat = path.stat()
                summary.bytes += stat.st_size
                summary.bytes_by_kind[kind] = (
                    summary.bytes_by_kind.get(kind, 0) + stat.st_size
                )
                with open(path) as handle:
                    if not _is_current(json.load(handle), salt):
                        summary.stale += 1
            except (OSError, json.JSONDecodeError):
                summary.stale += 1
        for path in self._trace_files(TRACE_DATA_SUFFIX):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            summary.trace_files += 1
            summary.trace_bytes += size
            summary.bytes += size
            summary.bytes_by_kind["trace-data"] = (
                summary.bytes_by_kind.get("trace-data", 0) + size
            )
        for path in self._trace_files(TRACE_OPS_SUFFIX):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            summary.ops_files += 1
            summary.ops_bytes += size
            summary.bytes += size
            summary.bytes_by_kind["trace-ops"] = (
                summary.bytes_by_kind.get("trace-ops", 0) + size
            )
        return summary

    # -- in-use pins ---------------------------------------------------------

    @property
    def pins_dir(self) -> Path:
        """Root of the in-use pin files (``<root>/pins/``)."""
        return self.root / "pins"

    def _pin_path(self, fingerprint: str) -> Path:
        return self.pins_dir / f"{fingerprint}.{os.getpid()}.pin"

    def pin_trace(self, fingerprint: str) -> None:
        """Mark a trace fingerprint as in use by this process.

        A long-running daemon holds attached traces as read-only memory
        maps; a concurrent ``repro cache gc`` (another process, same
        store root) must not collect them.  Pins are pid-stamped files
        under ``pins/`` so they are visible across processes and a
        crashed pinner leaves only stale pins, which
        :meth:`pinned_fingerprints` detects (dead pid) and sweeps.
        """
        path = self._pin_path(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            path.write_text(f"{os.getpid()}\n")
        except OSError:
            return
        obs.count("store.pin")

    def unpin_trace(self, fingerprint: str) -> None:
        """Drop this process's pin on ``fingerprint`` (idempotent)."""
        self._discard(self._pin_path(fingerprint))

    def release_pins(self) -> int:
        """Remove every pin held by this process; returns the count."""
        removed = 0
        if self.pins_dir.is_dir():
            for path in self.pins_dir.glob(f"*.{os.getpid()}.pin"):
                self._discard(path)
                removed += 1
        return removed

    @staticmethod
    def _pid_alive(pid: int) -> bool:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except (PermissionError, OSError):
            return True
        return True

    def pinned_fingerprints(self) -> set[str]:
        """Fingerprints pinned by live processes.

        Stale pins — files whose stamped pid no longer exists — are
        deleted on the way through, so a crashed daemon cannot protect
        artifacts forever.
        """
        pinned: set[str] = set()
        if not self.pins_dir.is_dir():
            return pinned
        for path in self.pins_dir.glob("*.pin"):
            fingerprint, _dot, pid_text = path.name[: -len(".pin")].rpartition(".")
            try:
                pid = int(pid_text)
            except ValueError:
                self._discard(path)
                continue
            if not fingerprint or not self._pid_alive(pid):
                self._discard(path)
                continue
            pinned.add(fingerprint)
        return pinned

    @staticmethod
    def _entry_fingerprint(path: Path) -> str | None:
        """The trace fingerprint an entry references, if it is trace-like."""
        if path.parent.parent.name not in ("trace", "trace-meta"):
            return None
        try:
            with open(path) as handle:
                payload = json.load(handle).get("payload")
            return payload["fingerprint"]
        except (OSError, json.JSONDecodeError, TypeError, KeyError):
            return None

    def gc(
        self, max_bytes: int | None = None, max_age_days: float | None = None
    ) -> tuple[int, int]:
        """Evict entries; returns ``(entries_removed, bytes_removed)``.

        Three passes, cheapest first: entries from other code versions or
        store formats (or unreadable ones) always go; entries older than
        ``max_age_days`` go next; then oldest-first eviction until the
        store fits ``max_bytes``.

        Trace artifacts pinned by a live process (:meth:`pin_trace`) are
        exempt from the age and byte-pressure passes — a daemon holding
        an attached trace keeps its fingerprint loadable.  Stale-salt
        eviction still wins: an entry from another code version is
        unreadable by definition, pinned or not.
        """
        salt = code_salt()
        now = time.time()
        pinned = self.pinned_fingerprints()
        removed = removed_bytes = 0
        survivors: list[tuple[float, int, Path]] = []
        for path in self._entries():
            try:
                stat = path.stat()
                with open(path) as handle:
                    stale = not _is_current(json.load(handle), salt)
            except (OSError, json.JSONDecodeError):
                stale = True
                stat = None
            protected = (
                not stale
                and pinned
                and self._entry_fingerprint(path) in pinned
            )
            age_days = (now - stat.st_mtime) / 86400.0 if stat else 0.0
            expired = max_age_days is not None and age_days > max_age_days
            if stale or (expired and not protected):
                removed += 1
                removed_bytes += stat.st_size if stat else 0
                self._discard(path)
                continue
            if not protected:
                survivors.append((stat.st_mtime, stat.st_size, path))
        if max_bytes is not None:
            total = sum(size for _mtime, size, _path in survivors)
            for _mtime, size, path in sorted(survivors):
                if total <= max_bytes:
                    break
                self._discard(path)
                total -= size
                removed += 1
                removed_bytes += size
        trace_removed, trace_bytes = self._gc_trace_files(pinned)
        return removed + trace_removed, removed_bytes + trace_bytes

    def _gc_trace_files(self, pinned: set[str] | None = None) -> tuple[int, int]:
        """Drop trace files no surviving ``trace`` entry references.

        Runs after the entry passes, so evicting a ``trace`` entry (stale
        salt, age, or byte pressure) automatically reclaims its — much
        larger — column and ops files on the same gc.  Pinned
        fingerprints count as referenced even without a surviving entry.
        """
        referenced: set[str] = set(pinned or ())
        trace_entries = self.objects_dir / "trace"
        if trace_entries.is_dir():
            for path in trace_entries.rglob("*.json"):
                if path.name.startswith("."):
                    continue
                try:
                    with open(path) as handle:
                        payload = json.load(handle).get("payload")
                    referenced.add(payload["fingerprint"])
                except (OSError, json.JSONDecodeError, TypeError, KeyError):
                    continue
        removed = removed_bytes = 0
        for suffix in TRACE_FILE_SUFFIXES:
            for path in self._trace_files(suffix):
                if path.stem in referenced:
                    continue
                try:
                    removed_bytes += path.stat().st_size
                except OSError:
                    pass
                self._discard(path)
                removed += 1
        return removed, removed_bytes

    def clear(self) -> int:
        """Delete every entry and trace file; returns the count."""
        removed = 0
        for path in self._entries():
            self._discard(path)
            removed += 1
        for suffix in TRACE_FILE_SUFFIXES:
            for path in self._trace_files(suffix):
                self._discard(path)
                removed += 1
        return removed

    def summary_line(self) -> str:
        """One greppable line of this run's cache effectiveness."""
        tallies = self.counters
        return (
            f"[store] hits={tallies.hits} misses={tallies.misses} "
            f"corrupt={tallies.corrupt} writes={tallies.writes} "
            f"bytes_written={tallies.bytes_written} root={self.root}"
        )


# -- the active store ---------------------------------------------------------

_active: ArtifactStore | None = None


def current_store() -> ArtifactStore | None:
    """The installed artifact store, or None when caching is off."""
    return _active


def set_store(store: ArtifactStore | None) -> ArtifactStore | None:
    """Install ``store`` as the active store; returns the previous one."""
    global _active
    previous = _active
    _active = store
    return previous


class use_store:
    """Context manager installing a store for a ``with`` block."""

    def __init__(self, store: ArtifactStore | None):
        self._store = store
        self._previous: ArtifactStore | None = None

    def __enter__(self) -> ArtifactStore | None:
        self._previous = set_store(self._store)
        return self._store

    def __exit__(self, *exc_info) -> bool:
        set_store(self._previous)
        return False


def resolve_cache_dir(cache_dir: str | None = None) -> str:
    """Store root for a CLI run: flag > ``REPRO_CACHE_DIR`` > default."""
    if cache_dir:
        return cache_dir
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
