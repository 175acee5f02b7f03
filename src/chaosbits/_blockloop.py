"""The compiled logistic block loop (``_blockloop.c``), built on first use.

`load` compiles the C source with ``gcc`` into the user cache directory
(``$XDG_CACHE_HOME/chaosbits`` when that is an absolute path, else
``~/.cache/chaosbits``), under a name keyed by a 64-bit checksum of the
source, the flags and the machine type, and loads it through ctypes.
The key is zlib's crc32 and adler32 of those bytes, not a hashlib
digest: zlib is already loaded with numpy, while hashlib maps OpenSSL's
libcrypto, ~3.6 MiB resident in every command.  The key only names a
cache file and guards nothing; whoever can write to the cache can plant
a library under any name.  A build is written to a temporary name and
renamed into place, so a concurrent process never loads a half-written
library.  Libraries are never deleted: each source, flag set and
machine type keeps its own, so checkouts of different sources that
share one cache never rebuild each other's.  Without ``gcc`` on PATH
`load` returns None, and when the build or the load fails it warns
(RuntimeWarning) and returns None; the generator then runs its Python
block loop.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
import zlib
from pathlib import Path

_SOURCE = Path(__file__).with_name("_blockloop.c")
# -ffp-contract=off keeps gcc from fusing a multiply and an add into one
# FMA, whose single rounding would change the orbit.  No -ffast-math: the
# loop's stop test relies on a NaN key comparing unequal.
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


class KernelState(ctypes.Structure):
    """chaosbits_state: the driver state a kernel call starts from and leaves,
    the stream's partial byte, the generator's shape and the state key to
    stop at."""

    _fields_ = [
        ("y", ctypes.c_double),
        ("mask", ctypes.c_uint64),
        ("acc", ctypes.c_uint64),
        ("nacc", ctypes.c_int64),
        ("iters", ctypes.c_int64),
        ("dead", ctypes.c_int64),
        ("n", ctypes.c_int64),
        ("k", ctypes.c_int64),
        ("gaps", ctypes.c_void_p),
        ("key_mask", ctypes.c_uint64),
        ("key_y", ctypes.c_double),
    ]


def _cache_dir() -> Path:
    # The XDG Base Directory spec says a relative path is invalid and must
    # be ignored, like an unset variable.
    base = os.environ.get("XDG_CACHE_HOME", "")
    return (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "chaosbits"


def _build(gcc: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.name, suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([gcc, *_FLAGS, "-o", tmp, str(_SOURCE)], check=True, capture_output=True, text=True)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def load():
    """The ctypes function chaosbits_advance, or None when it cannot be built.

    The first call in a process may compile (tens of milliseconds, once
    per cache); later calls return the same handle.
    """
    gcc = shutil.which("gcc")
    if gcc is None:
        return None
    try:
        key = b"\0".join([_SOURCE.read_bytes(), " ".join(_FLAGS).encode(), platform.machine().encode()])
        target = _cache_dir() / f"blockloop-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
        if not target.exists():
            _build(gcc, target)
        fn = ctypes.CDLL(str(target)).chaosbits_advance
    except subprocess.CalledProcessError as exc:
        reason = f"building {_SOURCE.name} failed:\n{exc.stderr}"
    except (OSError, RuntimeError) as exc:  # RuntimeError: Path.home() found no home directory
        reason = f"the compiled block loop is unavailable: {exc}"
    else:
        fn.argtypes = [ctypes.POINTER(KernelState), ctypes.c_int64, ctypes.c_void_p]
        fn.restype = ctypes.c_int64
        return fn
    warnings.warn(f"chaosbits: {reason}; using the Python block loop", RuntimeWarning, stacklevel=2)
    return None
