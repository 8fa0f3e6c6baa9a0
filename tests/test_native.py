"""The native LRU kernel's build, cache and fallback contract.

:mod:`repro.cache.native` compiles ``_lru.c`` on first use into a
private per-user cache directory and loads it with ctypes; when that is
impossible, :class:`~repro.cache.batch.BatchCacheSimulator` runs the
scalar simulator instead.  Build tests need a C compiler and skip
without one.
"""

from __future__ import annotations

import os
import shutil
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cache import native
from repro.cache.batch import BatchCacheSimulator
from repro.cache.config import CacheConfig
from repro.obs import telemetry as obs

needs_compiler = pytest.mark.skipif(
    shutil.which("gcc") is None and shutil.which("cc") is None,
    reason="no C compiler",
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cache_home(monkeypatch, tmp_path) -> Path:
    """Point the kernel cache at a fresh directory; return the cache dir."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    return tmp_path / "xdg" / "repro" / "native"


@pytest.fixture
def fresh_probe(monkeypatch):
    """Let :func:`native.load` probe again; restore the memo afterwards."""
    monkeypatch.setattr(native, "_probed", False)
    monkeypatch.setattr(native, "_library", None)


def test_cache_dir_follows_xdg_and_ignores_relative(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert native.cache_dir() == tmp_path / "repro" / "native"
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/dir")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert native.cache_dir() == tmp_path / "home" / ".cache" / "repro" / "native"
    # Without a home directory the cache never lands in the working tree.
    monkeypatch.setattr(native.os.path, "expanduser", lambda path: path)
    with pytest.raises(FileNotFoundError):
        native.cache_dir()


def test_import_builds_nothing(tmp_path):
    """Importing the program never compiles: the build waits for first use."""
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import repro.cache, repro.experiments, repro.sweep"],
        env=env,
        check=True,
        timeout=120,
    )
    assert not (tmp_path / "repro").exists()


@needs_compiler
def test_build_is_private_cached_and_keyed(cache_home, monkeypatch):
    built = native.build()
    assert built.parent == cache_home and built.name.startswith("lru-")
    assert stat.S_IMODE(cache_home.stat().st_mode) == 0o700
    assert [path.name for path in cache_home.iterdir()] == [built.name]

    # A cached build is reused without running the compiler again.
    def no_compile(*args, **kwargs):
        raise AssertionError("compiled a cached kernel")

    with monkeypatch.context() as patch:
        patch.setattr(native.subprocess, "run", no_compile)
        assert native.build() == built

    # The key covers the build flags (and the source and platform).
    monkeypatch.setattr(native, "CFLAGS", native.CFLAGS + ("-O1",))
    assert native.build() != built


@needs_compiler
def test_concurrent_first_builds_agree(cache_home):
    results: list[Path] = []
    threads = [
        threading.Thread(target=lambda: results.append(native.build()))
        for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert len(results) == 4 and len(set(results)) == 1
    # Temporary outputs were renamed into place or removed.
    assert [path.name for path in cache_home.iterdir()] == [results[0].name]


def failing_compiler(tmp_path: Path) -> str:
    """A stand-in compiler that always fails."""
    script = tmp_path / "failing-cc"
    script.write_text("#!/bin/sh\nexit 1\n")
    script.chmod(0o700)
    return str(script)


def test_shared_cache_dir_is_refused(tmp_path, cache_home, monkeypatch, fresh_probe):
    monkeypatch.setattr(native, "_compiler", lambda: failing_compiler(tmp_path))
    cache_home.mkdir(parents=True)
    cache_home.chmod(0o777)
    with pytest.raises(PermissionError):
        native.build()
    assert native.load() is None
    assert not list(cache_home.iterdir())


@pytest.mark.parametrize("mode", [0o777, 0o775, 0o757], ids=oct)
def test_shared_parent_dir_is_refused(tmp_path, cache_home, monkeypatch, mode):
    """A parent others can write lets them swap the cache dir before loading."""
    monkeypatch.setattr(native, "_compiler", lambda: failing_compiler(tmp_path))
    cache_home.mkdir(parents=True, mode=0o700)
    cache_home.parent.chmod(mode)
    with pytest.raises(PermissionError, match="parent"):
        native.build()
    assert not list(cache_home.iterdir())


def test_sticky_shared_parent_is_accepted(tmp_path, cache_home, monkeypatch):
    """A world-writable parent with the sticky bit, like ``/tmp``, is fine."""
    monkeypatch.setattr(native, "_compiler", lambda: failing_compiler(tmp_path))
    cache_home.mkdir(parents=True, mode=0o700)
    cache_home.parent.chmod(0o1777)
    # The directory checks pass and the (failing) compiler runs.
    with pytest.raises(subprocess.CalledProcessError):
        native.build()


@pytest.mark.skipif(os.getuid() != 0, reason="changing a directory owner needs root")
def test_parent_owned_by_another_user_is_refused(tmp_path, cache_home, monkeypatch):
    monkeypatch.setattr(native, "_compiler", lambda: failing_compiler(tmp_path))
    cache_home.mkdir(parents=True, mode=0o700)
    os.chown(cache_home.parent, 12345, 12345)
    with pytest.raises(PermissionError, match="parent"):
        native.build()


def test_failed_build_leaves_nothing(tmp_path, cache_home, monkeypatch):
    monkeypatch.setattr(native, "_compiler", lambda: failing_compiler(tmp_path))
    with pytest.raises(subprocess.CalledProcessError):
        native.build()
    assert not list(cache_home.iterdir())


def test_no_compiler_falls_back_to_scalar(monkeypatch, fresh_probe):
    """No compiler: the loader reports None and the engine runs scalar.

    The fallback's results are pinned against the scalar simulator by
    the differential fuzz and the parity suite.
    """
    monkeypatch.setattr(native, "_compiler", lambda: None)
    with pytest.raises(FileNotFoundError):
        native.build()
    registry = obs.Telemetry()
    with obs.use(registry):
        engine = BatchCacheSimulator(CacheConfig(associativity=2), classify=True)
        # The direct-mapped numpy kernel needs no compiler.
        assert BatchCacheSimulator(CacheConfig())._kernel is not None
    assert engine._kernel is None
    assert registry.counters["sim.native_unavailable"] == 1
