"""The loaded BLAS: its name, and its thread count where that can be set.

Training runs every client update at one BLAS thread
(federation.ClientExecutor), so the bits of theta do not depend on the
thread count a process inherits; eval runs at the inherited count. The
count is read and set through the OpenBLAS that numpy loaded: numpy's
wheels bundle it with prefixed, 64-bit-integer symbols
(``scipy_openblas_set_num_threads64_``), other builds export the plain
names. Where neither is found, nothing is pinned.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

_SYMBOLS = [(f"{prefix}get_num_threads{suffix}",
             f"{prefix}set_num_threads{suffix}")
            for prefix in ("scipy_openblas_", "openblas_")
            for suffix in ("64_", "")]


def vendor() -> str:
    """Name and version of the BLAS numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 has no dict mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


@functools.cache
def _thread_api():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({f[5] for f in map(str.split, maps) if len(f) >= 6
                            and "openblas" in f[5].rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def can_pin() -> bool:
    """Whether the thread count can be set in this process."""
    return _thread_api() is not None


def threads() -> int | None:
    """The current thread count; None where it cannot be read."""
    api = _thread_api()
    return None if api is None else api[0]()


def set_threads(n: int) -> None:
    api = _thread_api()
    if api is None:
        raise RuntimeError("no OpenBLAS thread-count setter is loaded")
    api[1](n)


def train_threads() -> int | None:
    """The thread count client updates run at: 1 where it can be pinned,
    None where it cannot (the count is then neither set nor readable)."""
    return 1 if can_pin() else None
