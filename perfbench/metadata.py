"""Run metadata and the append-only result history."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from typing import Optional

#: Environment variables that fix the BLAS thread count (set to 1 by run.py
#: unless the caller chose a value).
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(root: str) -> str:
    """SHA-256 over the paths and bytes of every file under ``src/``."""
    digest = hashlib.sha256()
    source = os.path.join(root, "src")
    for directory, subdirectories, files in os.walk(source):
        subdirectories[:] = sorted(name for name in subdirectories if name != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, source).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


def filesystem_type(path: str) -> Optional[str]:
    """Type of the filesystem holding ``path`` (longest matching mount point)."""
    path = os.path.realpath(path)
    best, best_type = "", None
    try:
        with open("/proc/self/mountinfo") as handle:
            for line in handle:
                fields = line.split()
                mount_point = fields[4]
                fs_type = fields[fields.index("-") + 1]
                inside = path == mount_point or path.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) >= len(best):
                    best, best_type = mount_point, fs_type
    except (OSError, ValueError, IndexError):
        return None
    return best_type


def run_metadata(root: str, seed: int, workdir: str) -> dict:
    import numpy

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "snapshot_filesystem": filesystem_type(workdir),
        "seed": seed,
    }


def append_history(path: str, record: dict) -> None:
    """Append one JSON line; earlier records are never rewritten."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
