"""Real-OS execution backends.

- :mod:`repro.runtime.fork_backend` — ``os.fork`` worlds with genuine
  kernel copy-on-write, pipe-signalled synchronization, and SIGKILL sibling
  elimination (sync or async). This is the backend behind the Table I
  reproduction: real wall-clock times on real CPUs.
- :mod:`repro.runtime.thread_backend` — a thread-pool approximation for
  platforms without ``fork`` (losers cannot be killed, only ignored).
- :mod:`repro.runtime.checkpoint` — self-contained restartable process
  images (the paper's rfork-by-checkpoint, Smith & Ioannidis [19]).
"""

import os

from repro.runtime.thread_backend import run_alternatives_thread
from repro.runtime.checkpoint import CheckpointImage, capture_checkpoint

HAS_FORK = hasattr(os, "fork")

if HAS_FORK:
    from repro.runtime.fork_backend import run_alternatives_fork

    __all__ = [
        "run_alternatives_fork",
        "run_alternatives_thread",
        "CheckpointImage",
        "capture_checkpoint",
        "HAS_FORK",
    ]
else:  # pragma: no cover - non-POSIX fallback
    __all__ = [
        "run_alternatives_thread",
        "CheckpointImage",
        "capture_checkpoint",
        "HAS_FORK",
    ]
