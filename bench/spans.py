"""Spans around multirate's public functions, installed from outside the package.

`Tracer.installed()` replaces every public function of the layer modules at
every name a caller can reach it by: `multirate.cli` binds names with
`from .io import read_dataset`, so `multirate.io.read_dataset` and
`multirate.cli.read_dataset` are both patched. Each call records a `Span`
with its parent, so a layer's self time is its duration minus the time its
child spans cover. Spans stay in memory until `take()`.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("sim", "augment", "io", "cli", "model")

# Called once per sample or per aligned step: a span each would cost more
# than the work it measures, so these stay unwrapped and their time lands in
# the caller's self time.
PER_STEP = frozenset(
    {
        "model.clamp_index",
        "model.frame_anchor_index",
        "sim.bilateral_step",
        "sim.control_commands",
        "sim.plant_step",
        "sim.dob_update",
        "sim.rfob_update",
    }
)


def payload_bytes(path: str | Path) -> int:
    """Payload bytes an artifact's manifest declares; `path` is the directory or its manifest.

    The manifest itself is left out: its size varies with ids and seeds, not shapes.
    """
    path = Path(path)
    manifest = path if path.name == "manifest.json" else path / "manifest.json"
    return sum(f["bytes"] for f in json.loads(manifest.read_text())["files"].values())


# span name -> fn(args, result) -> (items, bytes) recorded on the span
COUNTERS: dict[str, Callable[[tuple, object], tuple[int, int]]] = {
    "sim.run_simulation": lambda args, res: (res.episode.sample_count, 0),
    "augment.augment": lambda args, res: (sum(s.step_count for s in res.episodes), 0),
    "augment.slice_episode": lambda args, res: (res.step_count, 0),
    "io.write_episode": lambda args, res: (1, payload_bytes(res)),
    "io.write_dataset": lambda args, res: (1, payload_bytes(res)),
    "io.read_dataset": lambda args, res: (1, payload_bytes(args[0])),
}


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None  # sid of the span that was open when this one began
    start: float
    end: float
    rchar: int  # bytes read through read-like syscalls during the span
    wchar: int
    items: int = 0
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Totals:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    rchar: int = 0
    wchar: int = 0
    items: int = 0
    nbytes: int = 0


def _io_counters() -> tuple[int, int]:
    """rchar/wchar of this process from /proc/self/io; zeros where it is absent."""
    try:
        text = Path("/proc/self/io").read_text()
    except OSError:
        return 0, 0
    fields = dict(line.split(": ", 1) for line in text.splitlines())
    return int(fields["rchar"]), int(fields["wchar"])


class Tracer:
    """Records a span per call of each wrapped function while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            r0, w0 = _io_counters()
            start = time.perf_counter()
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                end = time.perf_counter()
                r1, w1 = _io_counters()
                span = Span(sid, name, parent, start, end, r1 - r0, w1 - w0)
                self.spans.append(span)
            if count is not None:
                span.items, span.nbytes = count(args, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every binding of each layer's public functions; restore on exit."""
        package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "multirate"]
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"multirate.{layer}"]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr.removeprefix('cmd_')}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in PER_STEP
                ):
                    wrappers[id(obj)] = self._wrap(name, obj)
        patched = []
        for module in package:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, obj))
        try:
            yield
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)


def aggregate(spans: list[Span]) -> dict[str, Totals]:
    """Per span name: calls, inclusive and self seconds, io deltas, counts."""
    child_s: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + s.duration
    out: dict[str, Totals] = {}
    for s in spans:
        t = out.setdefault(s.name, Totals())
        t.calls += 1
        t.incl_s += s.duration
        t.self_s += s.duration - child_s.get(s.sid, 0.0)
        t.rchar += s.rchar
        t.wchar += s.wchar
        t.items += s.items
        t.nbytes += s.nbytes
    return out


def count_under(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of `name` spans that ran inside an `ancestor` span."""
    by_sid = {s.sid: s for s in spans}
    n = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and by_sid[p].name != ancestor:
            p = by_sid[p].parent
        n += p is not None
    return n
