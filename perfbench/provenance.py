"""Where a result came from: code revision, library versions, cores."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path


def _git(root: Path, *args: str) -> "str | None":
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _openblas_version() -> "str | None":
    import scipy

    try:
        config = scipy.show_config(mode="dicts")
    except (TypeError, ValueError):
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return blas.get("version") or blas.get("openblas configuration")


def provenance(root: Path) -> dict:
    """Git SHA and dirty flag (``None`` outside a git checkout), the
    Python/numpy/scipy/OpenBLAS versions, the usable core count and the
    BLAS thread count the workload process was pinned to."""
    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
