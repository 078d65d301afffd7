"""Worker-count cap and an order-preserving map for the grid scans."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence


def max_workers() -> int:
    """Parallelism cap from VANCAL_THREADS (>= 1); results never depend on it."""
    raw = os.environ.get("VANCAL_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def ordered_map(fn: Callable, items: Sequence) -> list:
    """Map preserving input order, threaded when VANCAL_THREADS > 1."""
    workers = max_workers()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
