"""Real-OS execution backends.

- :mod:`repro.runtime.fork_backend` — ``os.fork`` worlds with genuine
  kernel copy-on-write, pipe-signalled synchronization, and SIGKILL sibling
  elimination (sync or async). This is the backend behind the Table I
  reproduction: real wall-clock times on real CPUs.
- :mod:`repro.runtime.thread_backend` — a thread-pool approximation for
  platforms without ``fork`` (losers cannot be killed, only ignored).
"""

import os

from repro.runtime.thread_backend import run_alternatives_thread

HAS_FORK = hasattr(os, "fork")

if HAS_FORK:
    from repro.runtime.fork_backend import run_alternatives_fork

    __all__ = ["run_alternatives_fork", "run_alternatives_thread", "HAS_FORK"]
else:  # pragma: no cover - non-POSIX fallback
    __all__ = ["run_alternatives_thread", "HAS_FORK"]
