"""Build and load the C kernels (``_lru.c``) behind a feature probe.

The one library holds four entry points: ``lru_consume`` and
``fa_consume`` for the cache simulators, and ``trg_pass`` and
``trg_rehash`` for the profiler's TRG recency pass.  :func:`load`
compiles it with the system C compiler the first time a simulator or
the profiler needs it — never at import — and loads it with
:mod:`ctypes`.  The shared library is cached in a per-user directory
(``$XDG_CACHE_HOME/repro/native``, default ``~/.cache``, mode 0700)
under a name hashed from the source, the platform, the compiler and the
flags, so later processes load it without compiling.  The directory is
refused when another user could write it or replace it through one of
its parents.  Concurrent first builds (e.g. scheduler workers) are safe:
each compiles to a private temporary name and atomically renames it
into place.

When no compiler is found, or the build or load fails, :func:`load`
returns ``None`` and callers run their Python path instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
from importlib import resources
from pathlib import Path

import numpy as np

SOURCE = "_lru.c"
CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")

_lock = threading.Lock()
_probed = False
_library: ctypes.CDLL | None = None


def _array(dtype) -> type:
    return np.ctypeslib.ndpointer(dtype=dtype, ndim=1, flags="C_CONTIGUOUS")


_I64 = ctypes.c_int64
_A64 = _array(np.int64)
_A32 = _array(np.int32)
_U8 = _array(np.uint8)
#: (restype, argtypes) of the kernel's entry points; see ``_lru.c``.
_SIGNATURES = {
    # n, blocks, store, num_sets, ways, tags, stamps, dirty, clock, miss
    "lru_consume": (_I64, (_I64, _A64, _U8, _I64, _I64, _A64, _A64, _U8, _A64, _U8)),
    # n, blocks, cap, mask, keys, slots, slot_block, prev, next, meta, in_shadow
    "fa_consume": (
        None,
        (_I64, _A64, _I64, _I64, _A64, _A32, _A64, _A32, _A32, _A64, _U8),
    ),
    # n, ranks, entry, num_keys, threshold, queued, prev, next, state,
    # mask, keys, weights, stamps
    "trg_pass": (
        _I64,
        (_I64, _A64, _A64, _I64, _I64, _A64, _A64, _A64, _A64, _I64, _A64, _A64, _A64),
    ),
    # cap, old keys, old weights, old stamps, mask, keys, weights, stamps
    "trg_rehash": (None, (_I64, _A64, _A64, _A64, _I64, _A64, _A64, _A64)),
}


def cache_dir() -> Path:
    """The per-user directory holding built kernels."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    # The XDG spec says a relative path is invalid and must be ignored.
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(base):
        # No home directory: never fall back to the working directory.
        raise FileNotFoundError("no home directory to cache the kernel in")
    return Path(base) / "repro" / "native"


_SHARED = stat.S_IWGRP | stat.S_IWOTH


def _private_dir(path: Path) -> Path:
    """Create ``path`` (mode 0700) and refuse it unless only we can write it.

    Every ancestor must be owned by us or root and be writable by nobody
    else, or carry the sticky bit (as ``/tmp`` does); otherwise another
    user could swap the directory for their own before the kernel loads.
    Returns the resolved path, so no symlink is followed afterwards.
    """
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    path = path.resolve()
    info = path.stat()
    if info.st_uid != os.getuid() or info.st_mode & _SHARED:
        raise PermissionError(f"kernel cache {path} is writable by other users")
    for parent in path.parents:
        info = parent.stat()
        shared = info.st_mode & _SHARED and not info.st_mode & stat.S_ISVTX
        if info.st_uid not in (0, os.getuid()) or shared:
            raise PermissionError(f"kernel cache parent {parent} is shared")
    return path


def _compiler() -> str | None:
    return shutil.which("gcc") or shutil.which("cc")


def build() -> Path:
    """Return the path of the built kernel, compiling it if not cached.

    Raises :class:`OSError` or :class:`subprocess.SubprocessError` when
    no compiler is found or the build fails.
    """
    compiler = _compiler()
    if compiler is None:
        raise FileNotFoundError("no C compiler (gcc or cc) on PATH")
    source = resources.files(__package__).joinpath(SOURCE).read_bytes()
    digest = hashlib.sha256(source)
    for part in (sys.platform, platform.machine(), compiler, " ".join(CFLAGS)):
        digest.update(b"\0" + part.encode())
    directory = _private_dir(cache_dir())
    target = directory / f"lru-{digest.hexdigest()[:16]}.so"
    if target.exists():
        return target
    fd, scratch = tempfile.mkstemp(prefix=".lru-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *CFLAGS, "-x", "c", "-", "-o", scratch],
            input=source,
            capture_output=True,
            check=True,
            timeout=120,
        )
        os.replace(scratch, target)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
    return target


def _open(path: Path) -> ctypes.CDLL:
    library = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _SIGNATURES.items():
        function = getattr(library, name)
        function.restype = restype
        function.argtypes = argtypes
    return library


def load() -> ctypes.CDLL | None:
    """The loaded kernel, built on first call; ``None`` when unavailable.

    The outcome is memoized per process, so a failed probe is not
    retried on every simulator.
    """
    global _probed, _library
    if _probed:
        return _library
    with _lock:
        if not _probed:
            try:
                _library = _open(build())
            except (OSError, subprocess.SubprocessError, AttributeError):
                _library = None
            _probed = True
    return _library
