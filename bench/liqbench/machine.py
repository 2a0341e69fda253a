"""Machine context recorded with every result.

Fit results and times depend on the BLAS thread count and on other load on
the machine, so numbers without them are not comparable.  BLAS is left at its
default setting; this module only reads it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import sys
from pathlib import Path


def loadavg() -> list[float]:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def _blas() -> dict:
    """OpenBLAS library, configuration and thread count, read through ctypes."""
    libs = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        pass
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", "", "_"):
            for prefix in ("scipy_openblas_", "openblas_"):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    info["threads"] = int(threads())
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        config.argtypes = []
                        info["config"] = config().decode()
                    return info
    return {"library": libs[0] if libs else "unknown", "threads": None}


def src_lines(package_dir: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(package_dir.glob("*.py")))


def context(package_dir: Path) -> dict:
    """nproc, interpreter and library versions, BLAS, load and source size."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "loadavg_start": loadavg(),
        "src_lines": src_lines(package_dir),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
