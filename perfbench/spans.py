"""In-memory span tracer that times calls into arnold from outside.

The tracer replaces a name in the namespace where a caller looks it up
(a module attribute, or a method on a class) with a wrapper that records
a span, and puts every original back on `restore()`.  Nothing in `src/`
changes.

Spans live in four parallel arrays (start, end, name id, parent index),
about 28 bytes each, because the largest traced runs record more than a
million of them.  A call that re-enters the name of the span it is
already inside is folded into that span, so a recursive function counts
as one call across the layer boundary.
"""
from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.generated: list[tuple[str, object, int]] = []  # (name, first arg, items)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, owner: object, attr: str, name: str):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        self.names.append(name)
        return original, len(self.names) - 1

    def wrap(self, owner: object, attr: str, name: str, observe=None) -> None:
        """Record a span for every call of `owner.attr`; `observe(args, result)`
        runs after the span closes."""
        original, nid = self._open(owner, attr, name)
        stack, start, end, names, parent = self._stack, self.start, self.end, self.name, self.parent

        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == nid:
                return original(*args, **kwargs)
            idx = len(start)
            start.append(perf_counter())
            end.append(0.0)
            names.append(nid)
            parent.append(top)
            stack.append(idx)
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, traced)

    def wrap_generator(self, owner: object, attr: str, name: str, spans: bool = True) -> None:
        """Count the items a generator function yields per call; with `spans`,
        also record one span per resumption, parented to the consumer's span."""
        original, nid = self._open(owner, attr, name)
        stack, start, end, names, parent = self._stack, self.start, self.end, self.name, self.parent
        generated = self.generated

        def resume(it, key):
            items = 0
            try:
                while True:
                    if spans:
                        idx = len(start)
                        start.append(perf_counter())
                        end.append(0.0)
                        names.append(nid)
                        parent.append(stack[-1])
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        if spans:
                            end[idx] = perf_counter()
                    items += 1
                    yield item
            finally:
                generated.append((name, key, items))

        def traced(*args, **kwargs):
            return resume(original(*args, **kwargs), args[0] if args else None)

        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put every wrapped name back, last wrapped first, and confirm it."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {attr} on {owner!r}")

    def by_name(self) -> dict[str, list[float]]:
        """name -> [calls, total seconds, self seconds]; self time is a span's
        duration minus the durations of its direct child spans."""
        start, end, parent = self.start, self.end, self.parent
        child = array("d", bytes(8 * len(start)))
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, nid in enumerate(self.name):
            d = end[i] - start[i]
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += d
            row[2] += d - child[i]
        return dict(out)

    def dump(self, path) -> None:
        """Write a JSON header line, then the raw start, end, name and parent
        arrays in that order."""
        header = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["start", "d"], ["end", "d"], ["name", "l"], ["parent", "l"]],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent):
                arr.tofile(f)
