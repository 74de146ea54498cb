"""In-memory span recording and process-memory probes for the benchmark.

Spans are recorded by the benchmark around its calls into each layer of
the program; nothing inside the program is instrumented. They stay in
memory until the run ends, when :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import ctypes
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    """A flat list of spans with parent links, grouped by trace id.

    Each span records its name, start, end (``time.perf_counter``
    seconds), the id of the span that was open when it started, and the
    trace id of the pipeline run it belongs to.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace_id = 0

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        record = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def trace(self, trace_id: int) -> list[dict]:
        """The spans of one pipeline run."""
        return [s for s in self.spans if s["trace"] == trace_id]

    @staticmethod
    def self_seconds(spans: list[dict]) -> dict[str, float]:
        """Self time summed per span name.

        A span's self time is its duration minus the time its direct
        children cover; children never overlap, since one caller runs
        the pipeline.
        """
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: dict[str, float] = {}
        for s in spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, indent=1) + "\n")


_STATUS = Path("/proc/self/status")
_CLEAR_REFS = Path("/proc/self/clear_refs")


def _status_mb(field: str) -> float:
    for line in _STATUS.read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from {_STATUS}")


def rss_mb() -> float:
    """Current resident set size of this process, in MB."""
    return _status_mb("VmRSS")


def peak_rss_mb() -> float:
    """Peak resident set size since the last :func:`reset_peak_rss`."""
    return _status_mb("VmHWM")


def _malloc_trim():
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _malloc_trim()


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark to the current RSS (Linux).

    Free heap is first handed back to the kernel (glibc ``malloc_trim``),
    so the current RSS is live memory only. Writing ``5`` to
    ``/proc/self/clear_refs`` then resets ``VmHWM``: the peak measured
    afterwards excludes whatever set-up or an earlier iteration
    allocated and has since released.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    _CLEAR_REFS.write_text("5")
