"""Run provenance: code version, toolchain, machine, load and code size."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git(root: Path, *args: str) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              timeout=20, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _openblas_version() -> Optional[str]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 prints instead of returning
        return None
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return blas.get("openblas configuration") or blas.get("version")


def line_counts(root: Path) -> Dict[str, int]:
    """Lines of Python per ``src/repro`` package (top-level modules as ``_root``)."""
    counts: Dict[str, int] = {}
    base = root / "src" / "repro"
    for path in sorted(base.rglob("*.py")):
        relative = path.relative_to(base).parts
        package = relative[0] if len(relative) > 1 else "_root"
        with path.open(encoding="utf-8") as handle:
            counts[package] = counts.get(package, 0) + sum(1 for _ in handle)
    counts["total"] = sum(counts.values())
    return counts


def collect(root: Path, load_before, seed: int, workload: str, seconds: int,
            trace: bool) -> Dict[str, object]:
    import numpy as np

    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git(root, "rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "loadavg_before": [round(v, 2) for v in load_before],
        "loadavg_after": [round(v, 2) for v in os.getloadavg()],
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "src_lines": line_counts(root),
    }
