"""In-memory span recorder that times photonmix's public functions from outside.

:meth:`Tracer.patch` replaces each named function, in every loaded photonmix
module that refers to it, with a wrapper that records a span; calls the
program makes internally (``oracle_visibility`` calling
``mix_on_beam_splitter``, say) are therefore timed as child spans.  Spans are
kept in a list and written out with the run's results.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, workload: str, run_id: str):
        self.workload = workload
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, on_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if on_result is not None:
                record.update(on_result(args, kwargs, result))
            return result

        return traced

    def patch(self, module, names, on_result=None) -> None:
        """Trace ``module.<name>`` for each name wherever a photonmix module binds it."""
        short = module.__name__.rsplit(".", 1)[-1]
        for fname in names:
            original = getattr(module, fname)
            wrapper = self._wrap(f"{short}.{fname}", original, (on_result or {}).get(fname))
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("photonmix"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def total(spans, *names: str) -> float:
    """Summed duration of the spans with any of the given names."""
    return sum((duration(s) for s in spans if s["name"] in names), 0.0)


def layer_total(spans, layer: str) -> float:
    """Time inside a module's spans, counting nested spans of the same module once."""
    by_id = {s["id"]: s for s in spans}
    prefix = layer + "."

    def inside_layer(span) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"].startswith(prefix):
                return True
            parent = by_id.get(parent["parent"])
        return False

    return sum((duration(s) for s in spans if s["name"].startswith(prefix) and not inside_layer(s)), 0.0)
