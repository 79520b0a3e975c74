"""Where a result came from: revision, interpreter, numpy, BLAS, cores."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _git(root: Path, *args: str) -> str | None:
    # the ceiling keeps git from answering for a repository above a
    # checkout that is not one itself
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args], capture_output=True, text=True, timeout=30, env=env
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def blas() -> tuple[str, int | None]:
    """BLAS name and version as numpy was built, and the thread count
    the loaded OpenBLAS reports (None when it cannot be asked).
    """
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    name = f"{info.get('name')} {info.get('version')}"
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return name, int(fn())
    return name, None


def collect(root: Path, seed: int, nproc: int) -> dict:
    revision = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if revision else None
    blas_name, blas_threads = blas()
    return {
        "git_revision": revision or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": nproc,
        "seed": seed,
    }
