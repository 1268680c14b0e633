"""What a result must record about the machine, and the peak-memory probe."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
import threading
import time

import numpy as np


def nproc() -> int:
    """CPUs this process may run on, as `nproc` counts them."""
    return len(os.sched_getaffinity(0))


def blas_info() -> dict:
    """Name and version numpy was built against, and the runtime kernel config.

    The runtime config names the CPU kernel OpenBLAS picked (DYNAMIC_ARCH
    builds choose at load time); bit-exact output digests depend on it.
    """
    built = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": built.get("name"), "version": built.get("version"), "config": None}
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_", "scipy_openblas_get_config", "openblas_get_config"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                info["config"] = fn().decode()
                return info
    return info


def source_digest(src: str) -> str:
    """sha256 over the package sources; identifies the program without git."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "finedrop", "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_revision(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def environment(root: str, **run) -> dict:
    """Everything a reader needs to compare two results."""
    return {
        "git_revision": git_revision(root),
        "source_sha256": source_digest(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "machine": platform.machine(),
        **run,
    }


def _status_kib(pid, field: str) -> int:
    with open(f"/proc/{pid}/status", "r") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            kids.append(int(entry))
    return kids


class PeakMemory:
    """Peak resident memory of this process plus its live child processes.

    The process's own peak is the kernel's high-water mark (VmHWM), which
    covers its whole life. Children (sweep pool workers) are found by a scan
    of /proc and their high-water marks read every INTERVAL_S; the largest
    sum over the children alive at one time is added. Pages a forked worker
    shares with the parent count in both, as RSS does.
    """

    INTERVAL_S = 0.1
    RESCAN_EVERY = 5  # samples; a /proc scan costs about 2 ms

    def __init__(self):
        self.children_kib = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me, kids, tick = os.getpid(), [], 0
        while not self._stop.wait(self.INTERVAL_S):
            if tick % self.RESCAN_EVERY == 0:
                kids = _children(me)
            tick += 1
            total = 0
            for pid in kids:
                try:
                    total += _status_kib(pid, "VmHWM")
                except OSError:  # the worker exited between scan and read
                    pass
            self.children_kib = max(self.children_kib, total)

    def __enter__(self) -> "PeakMemory":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mib = (_status_kib("self", "VmHWM") + self.children_kib) / 1024.0


PROBE_REFERENCE_S = 0.0085
_PROBE_MATRIX = np.ones((64, 64))


def _probe_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for _ in range(150):
        _PROBE_MATRIX @ _PROBE_MATRIX
    return time.perf_counter() - t0


def slowdown() -> float:
    """How much slower than uncontended the machine runs right now.

    Times a fixed mix of interpreter and BLAS work that does not touch
    finedrop (median of 3), against PROBE_REFERENCE_S, its uncontended time
    on the reference machine: a 2-vCPU x86-64 VM on a shared host, numpy
    2.4.6 with OpenBLAS 0.3.31 (SkylakeX kernel).
    """
    return sorted(_probe_once() for _ in range(3))[1] / PROBE_REFERENCE_S


STARTUP_REFERENCE_S = 0.15


def startup_slowdown() -> float:
    """How much slower than uncontended a fresh interpreter starts right now.

    Times a fresh interpreter that imports numpy, against STARTUP_REFERENCE_S,
    its fastest time seen on the reference machine. Set-up runs in fresh
    interpreters that allocate and write tens of MB; its time follows this
    probe much more closely than the in-process one above.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return (time.perf_counter() - t0) / STARTUP_REFERENCE_S
