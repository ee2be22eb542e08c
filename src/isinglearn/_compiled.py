"""Build, cache, load and check the compiled heat-bath sampler, heatbath.c.

The source is compiled on first use of the sampler, never at import, by
the C compiler Python was built with (sysconfig's CC), with FLAGS. The
library is cached per user: in ~/.cache/isinglearn, or, where that cannot
be written, in a directory of the user's own in the temp dir. Its file
name carries the SHA-256 of the source and the flags, and Python's
EXT_SUFFIX, so an edited source or another Python gets a build of its
own. A build is written under a temporary name and published by
os.replace, so processes that build at once (sweep workers) each load a
whole library. A directory keeps the _KEPT_BUILDS most recently used
builds of this Python: load() refreshes the modification time of the
build it uses, and a new build removes the oldest beyond that count, so
checkouts with different sources that run in turn do not evict each
other's builds. Without a usable compiler load() returns None, and the
sampler runs its Python loop, which gives the same chain.

heatbath.c copies two of numpy's draw steps, and NumPy does not promise
that these stay the same across versions (NEP 19). draws_match() compares
the copy with this numpy once per process; where they differ, the
sampler feeds the compiled chain numpy's own draws, a chunk per call.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import re
import shlex
import shutil
import struct
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("heatbath.c")
# -ffp-contract=off: no fused multiply-add, so every sum rounds as Python's
# does. Never -ffast-math or -march=native, which would change the chain.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
LIBS = ("-lm",)
# builds of this Python a cache directory keeps, the newest included
_KEPT_BUILDS = 4


def _compiler() -> list | None:
    """sysconfig's CC as an argument list, or None when it names no program
    on PATH."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    return cc if cc and shutil.which(cc[0]) else None


def _cache_dirs() -> list:
    dirs = []
    with contextlib.suppress(RuntimeError):  # no home directory
        dirs.append(Path.home() / ".cache" / "isinglearn")
    dirs.append(Path(tempfile.gettempdir()) / f"isinglearn-{os.getuid()}")
    return dirs


def _suffix() -> str:
    return sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def _library_name() -> str:
    key = hashlib.sha256(SOURCE.read_bytes())
    key.update(" ".join(FLAGS + LIBS).encode())
    return f"heatbath-{key.hexdigest()[:16]}{_suffix()}"


def _usable(d: Path) -> bool:
    """d exists or could be made, belongs to this user, and no one else
    may write to it (a library found there is run)."""
    try:
        d.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = d.stat()
    except OSError:
        return False
    return st.st_uid == os.getuid() and not st.st_mode & 0o022 and os.access(d, os.W_OK)


def _complete(path: Path) -> bool:
    """False for an ELF file that ends before its section header table,
    which linkers write last: the dynamic loader would map the missing
    pages, and the process would die of SIGBUS on touching them. Other
    files are left to the loader, which refuses what it cannot parse."""
    with open(path, "rb") as fh:
        head = fh.read(64)
    if not head.startswith(b"\x7fELF"):
        return True
    # e_shoff, then past four fields e_shentsize and e_shnum, where ELF64
    # (class byte 2) or ELF32 keeps them, in the file's byte order
    at, word = (40, "Q") if head[4:5] == b"\x02" else (32, "I")
    fmt = ("<" if head[5:6] == b"\x01" else ">") + word + "10xHH"
    if len(head) < at + struct.calcsize(fmt):
        return False
    shoff, shentsize, shnum = struct.unpack_from(fmt, head, at)
    return shoff + shentsize * shnum <= path.stat().st_size


def _build(cc: list, path: Path) -> None:
    """Compile SOURCE to path, then remove the heatbath-<key> builds of
    this EXT_SUFFIX in its directory beyond the _KEPT_BUILDS most recently
    modified, path included. Temporary files, which builds in progress
    own, are left alone."""
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([*cc, *FLAGS, "-o", tmp, str(SOURCE), *LIBS],
                       check=True, capture_output=True)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
    build = re.compile("heatbath-[0-9a-f]{16}" + re.escape(_suffix()))
    others = []
    for f in path.parent.iterdir():
        if f.name != path.name and build.fullmatch(f.name):
            with contextlib.suppress(FileNotFoundError):
                others.append((f.stat().st_mtime_ns, f))
    for _, f in sorted(others, reverse=True)[_KEPT_BUILDS - 1:]:
        with contextlib.suppress(FileNotFoundError):
            f.unlink()


def _array(dtype):
    """numpy's ndpointer argtype for C-ordered arrays of dtype, passing a
    writable array by the address of its buffer. numpy's from_param builds
    an ndarray.ctypes object per argument, and three of those took 10 of a
    loop call's 15 us on a few hundred draws (the numpy-draws path makes
    one call per chunk of draws). Any other argument goes to numpy's
    from_param, which raises for a wrong dtype or order."""
    base = np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")

    class Array(base):
        @classmethod
        def from_param(cls, obj):
            if (type(obj) is np.ndarray and obj.dtype == cls._dtype_ and obj.nbytes
                    and obj.flags.c_contiguous and obj.flags.writeable):
                return ctypes.byref(ctypes.c_char.from_buffer(obj))
            return base.from_param(obj)

    return Array


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare the library's functions. Every array is an ndpointer of its
    dtype and C order, so a wrong array raises instead of being misread."""
    i64, f64, i8, i32 = (_array(t) for t in (np.int64, np.float64, np.int8, np.int32))
    graph = ctypes.c_char_p  # a buffer of graph_size() bytes
    lib.graph_size.argtypes, lib.graph_size.restype = [], ctypes.c_size_t
    lib.graph_init.argtypes, lib.graph_init.restype = [graph, ctypes.c_int64, i64, i64, f64], None
    bitgen, n = ctypes.c_void_p, ctypes.c_int64  # a Generator's bitgen_t, or None
    lib.draws.argtypes, lib.draws.restype = [bitgen, n, n, i64, f64], ctypes.c_int
    # chain's last array is the table loop's mode and then its p counts
    lib.chain.argtypes = [graph, ctypes.c_int, bitgen, n, n, n, n, ctypes.c_int, i8, i8, i64, f64,
                          n, i32]
    lib.chain.restype = n
    return lib


def load(cache_dirs=None) -> ctypes.CDLL | None:
    """The compiled loop, from the first usable cache directory (by default
    _cache_dirs()) that holds or takes a build of this source; a cached file
    that does not load is built once more, and one that does is marked used
    by its modification time. None when no compiler is usable or no
    directory gives a library that loads."""
    cc = _compiler()
    if cc is None:
        return None
    name = _library_name()
    for d in map(Path, _cache_dirs() if cache_dirs is None else cache_dirs):
        if not _usable(d):
            continue
        path = d / name
        with contextlib.suppress(OSError):  # missing, cut short or gone: build it
            if _complete(path):
                os.utime(path)
                return _bind(ctypes.CDLL(str(path)))
        try:
            _build(cc, path)
            return _bind(ctypes.CDLL(str(path)))
        except (OSError, subprocess.CalledProcessError):
            continue
    return None


@functools.cache
def loop() -> ctypes.CDLL | None:
    """load() from the default cache directories, once per process."""
    return load()


# (p, n) of the stream check: ranges whose draws are never, rarely and
# about half the time rejected, p = 1, which draws no integers, and odd n,
# which leave half a 64-bit output buffered for the next draws
_CHECKED_DRAWS = ((1, 999), (2, 999), (30, 1000), (6_700_417, 999), (2**31 + 1, 1000))


def _replays(lib: ctypes.CDLL, rng: np.random.Generator, p: int, n: int) -> bool:
    """Whether lib.draws, run on a copy of rng's state, gives the values of
    rng.integers(0, p, n) and then rng.random(n) and leaves the copy in
    rng's state after them. rng makes those draws."""
    copy = np.random.Generator(type(rng.bit_generator)())
    copy.bit_generator.state = rng.bit_generator.state
    sites, us = np.empty(n, dtype=np.int64), np.empty(n)
    with copy.bit_generator.lock:
        lib.draws(copy.bit_generator.ctypes.bit_generator, p, n, sites, us)
    return (np.array_equal(sites, rng.integers(0, p, n)) and np.array_equal(us, rng.random(n))
            and copy.bit_generator.state == rng.bit_generator.state)


@functools.cache
def draws_match() -> bool:
    """Whether the compiled loop's copy of numpy's draws gives this numpy's
    stream (checked once per process on a few thousand draws of a fresh
    generator); False where there is no compiled loop."""
    lib = loop()
    rng = np.random.default_rng(0)
    return lib is not None and all(_replays(lib, rng, p, n) for p, n in _CHECKED_DRAWS)
