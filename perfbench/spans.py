"""Span tracing of the jwins layers from outside the package.

``installed`` swaps timing wrappers into every ``jwins`` module namespace that
binds a hooked function (``from .wavelet import dwt`` makes ``node.dwt`` and
``sparsify.dwt`` the same object as ``wavelet.dwt``), and puts the originals
back on exit, also when the traced call raises. Spans stay in memory as
``[name, start, end, parent_index]`` lists; ``self_times`` turns them into
per-span self time, meaning duration minus the part covered by child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute) pairs it wraps. Span names are the layer
# names the per-layer metrics are reported under.
HOOKS = {
    "learner.local_sgd": [("learner", "local_sgd")],
    "learner.evaluate": [("learner", "evaluate")],
    "wavelet.dwt": [("wavelet", "dwt")],
    "wavelet.idwt": [("wavelet", "idwt")],
    "sparsify.accumulate": [("sparsify", "accumulate_training_delta"),
                            ("sparsify", "accumulate_averaging_delta")],
    "sparsify.select": [("sparsify", "select_topk"), ("sparsify", "top_indices")],
    "sparsify.random_indices": [("sparsify", "random_indices")],
    "codec.encode": [("codec", "make_indexed_update"), ("codec", "make_seed_update"),
                     ("codec", "make_full_update"), ("codec", "serialize")],
    "codec.decode": [("codec", "deserialize")],
    "codec.resolve": [("codec", "resolve_indices")],
    "graph.generate_regular": [("graph", "generate_regular")],
    "graph.mixing": [("graph", "metropolis_hastings")],
    "node.prepare": [("node", "prepare_round")],
    "node.finalize": [("node", "finalize_round")],
    "node.sparse_average": [("node", "sparse_average")],
    "sim.run": [("sim", "run")],
}


# Span name of the benchmark's own counters that run inside a traced call.
PROBE = "trace.probe"


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """Timing wrapper around ``fn``; ``observe(args, result)`` runs after
        the span closes, in a ``PROBE`` span, for counters that need the
        call's inputs."""
        spans = self.spans
        stack = self._stack
        errors = self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                # Probe work gets a span of its own, so that no layer's self
                # time and no overhead figure counts it.
                start = clock()
                observe(args, result)
                spans.append([PROBE, start, clock(), stack[-1] if stack else -1])
            return result

        return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, hooks=HOOKS, observers=None, package: str = "jwins"):
    """Swap wrappers in for every hooked function; yields the hooks found absent.

    A hook whose module or attribute does not exist (for example after a
    refactor renamed it) is reported as ``"module.attr"`` in the yielded list
    instead of failing the run. ``observers`` maps ``"module.attr"`` to a
    callback handed to ``Tracer.wrap``.
    """
    observers = observers or {}
    absent = []
    saved = []
    try:
        for span_name, targets in hooks.items():
            for mod_name, attr in targets:
                key = "%s.%s" % (mod_name, attr)
                try:
                    module = importlib.import_module("%s.%s" % (package, mod_name))
                except ImportError:
                    absent.append(key)
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    absent.append(key)
                    continue
                wrapper = tracer.wrap(span_name, fn, observers.get(key))
                for mod in _package_modules(package):
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            saved.append((mod, name, fn))
                            setattr(mod, name, wrapper)
        yield absent
    finally:
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)


def _package_modules(package: str):
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def self_times(spans) -> list[float]:
    """Per-span duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> dict[str, tuple[float, int]]:
    """Span name -> (summed self seconds, call count)."""
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[0]]
        entry[0] += own
        entry[1] += 1
    return {name: (s, calls) for name, (s, calls) in totals.items()}
