"""Shared helpers for the experiment benches.

Every bench regenerates one of the paper's tables or figures and both
prints it (visible with ``pytest benchmarks/ --benchmark-only -s``) and
writes it under ``benchmarks/results/`` so the artifacts survive the run.
"""

from __future__ import annotations

import os
from typing import Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def report(name: str, text: str) -> str:
    """Print a result block and persist it to benchmarks/results/."""
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n"
    print(banner + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    return text


def mean_std(samples: Sequence[float]) -> tuple[float, float]:
    """Sample mean and (population) standard deviation."""
    n = len(samples)
    if n == 0:
        return 0.0, 0.0
    mu = sum(samples) / n
    var = sum((s - mu) ** 2 for s in samples) / n
    return mu, var ** 0.5


def table(headers: Sequence[str], rows: Sequence[Sequence], fmt: str = "10.4f") -> str:
    """Fixed-width text table; numbers via ``fmt``, the rest via str()."""
    def cell(value) -> str:
        if isinstance(value, float):
            return format(value, fmt)
        return str(value)

    rendered = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rendered)) if rendered else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
