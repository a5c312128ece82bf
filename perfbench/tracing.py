"""Spans and counts recorded around the public functions of each lsrsim module.

The wrappers are installed from outside the library, by rebinding the names
that the importing modules look up at call time (for example
``lsrsim.shrinkage.gmi_samples_multi_b``), and are removed again afterwards,
so untraced runs execute the library exactly as shipped.

Layer boundaries covered:

* ``cli``: ``cli.main`` (the benchmark calls the wrapper directly);
* ``experiments``: config parsing (``ExperimentConfig.from_dict``), the grid
  runner and table writing, as seen from ``cli``;
* ``shrinkage``: ``optimize_b`` as seen from ``experiments``;
* ``outage``: ``estimate_outage`` and ``gmi_samples_multi_b`` wherever they
  are looked up;
* ``channel``: ``lmmse_coefficient``;
* ``streams``: ``BlockSampler.normals``, as counts only, because it runs once
  per trial and per-call spans would dominate the run.

``gmi`` has no public function on the workload path: its batch solve runs in
private ``outage`` code, so its cost is part of the ``outage`` spans.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    request_id: int
    name: str
    start_ns: int
    end_ns: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


def _sampling_attrs(sig: inspect.Signature, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    return {
        "n_r": int(bound.arguments["config"].n_r),
        "b_values": len(bound.arguments["b_values"]),
        "trials": int(bound.arguments["trials"]),
    }


# (module, attribute, span name, records the sampling shape)
_FUNCTION_TARGETS = (
    ("cli", "run_outage_curve", "experiments.run", False),
    ("cli", "run_experiment", "experiments.run", False),
    ("cli", "emit_results", "experiments.emit", False),
    ("experiments", "estimate_outage", "outage.estimate_outage", False),
    ("experiments", "optimize_b", "shrinkage.optimize_b", False),
    ("experiments", "gmi_samples_multi_b", "outage.gmi_samples_multi_b", True),
    ("experiments", "lmmse_coefficient", "channel.lmmse_coefficient", False),
    ("shrinkage", "gmi_samples_multi_b", "outage.gmi_samples_multi_b", True),
    ("shrinkage", "lmmse_coefficient", "channel.lmmse_coefficient", False),
    ("outage", "gmi_samples_multi_b", "outage.gmi_samples_multi_b", True),
)


class Tracer:
    """Keeps spans in memory; counts normals drawn through ``BlockSampler``."""

    def __init__(self, lsrsim_modules: dict):
        self._modules = lsrsim_modules
        self.spans: list[Span] = []
        self.request_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._samplers: list = []
        self._normals_calls = 0
        self._normals_drawn = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, *, sampling: bool = False):
        """Return ``fn`` wrapped in a span named ``name``."""
        sig = inspect.signature(fn) if sampling else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            attrs = _sampling_attrs(sig, args, kwargs) if sampling else {}
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(
                    Span(span_id, parent, self.request_id, name, start, end, attrs)
                )

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        """Rebind the library names to traced wrappers."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span_name, sampling in _FUNCTION_TARGETS:
            module = self._modules[module_name]
            if hasattr(module, attr):
                self._patch(module, attr, self.wrap(span_name, getattr(module, attr), sampling=sampling))

        config_cls = self._modules["cli"].ExperimentConfig
        from_dict = inspect.getattr_static(config_cls, "from_dict")
        self._patch(
            config_cls,
            "from_dict",
            classmethod(self.wrap("experiments.parse", from_dict.__func__)),
        )
        outage = self._modules["outage"]
        self._patch(outage, "BlockSampler", self._counting_sampler(outage.BlockSampler))

    def uninstall(self) -> None:
        """Restore every rebound name and fold the sampler counts in."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
        with self._lock:
            for sampler in self._samplers:
                self._normals_calls += sampler.normals_calls
                self._normals_drawn += sampler.normals_drawn
            self._samplers.clear()

    def _patch(self, target, attr: str, replacement) -> None:
        self._patches.append((target, attr, inspect.getattr_static(target, attr)))
        setattr(target, attr, replacement)

    def _counting_sampler(self, base):
        tracer = self

        class CountingSampler(base):
            def __init__(self, seed):
                super().__init__(seed)
                self.normals_calls = 0
                self.normals_drawn = 0
                with tracer._lock:
                    tracer._samplers.append(self)

            def normals(self, index, out):
                # each instance is used by one thread, so plain adds are safe
                self.normals_calls += 1
                self.normals_drawn += out.size
                super().normals(index, out)

        return CountingSampler

    def counts(self) -> dict:
        """Call counts, inclusive and self time per span name, plus sampler counts."""
        children = defaultdict(float)
        for span in self.spans:
            if span.parent_id is not None:
                children[span.parent_id] += span.duration_s
        out: dict = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["inclusive_s"] += span.duration_s
            entry["self_s"] += span.duration_s - children[span.span_id]
        out["streams.BlockSampler.normals"] = {
            "calls": self._normals_calls,
            "normals": self._normals_drawn,
        }
        return out

    def to_json(self) -> dict:
        return {
            "spans": [
                {
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "request": s.request_id,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    **({"attrs": s.attrs} if s.attrs else {}),
                }
                for s in self.spans
            ],
            "counts": self.counts(),
        }
