"""Run one xxchain CLI command with every public xxchain function traced.

Usage::

    python bench/trace_cli.py SPANS.json <xxchain arguments...>

Every public function of every ``xxchain.*`` module is replaced, in each
module namespace that binds it, by a wrapper that records a span (name,
start, end, parent, thread).  Two private entry points are wrapped as well:
``cli._row_values`` (one span per table row, named ``cli.rows``) and
``RouteComparison.__post_init__`` (``tables.build``).  The command then runs
through ``xxchain.cli.main``.  Spans are held in memory and written to
SPANS.json when the command has finished; ``layers.py`` derives self times
from them.  The command's own output goes to stdout as usual.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import operator
import pkgutil
import sys
import threading
import time
import types

# A leaf function called more often than this is counted and timed per call
# from then on, without a span record of its own.
LEAF_SPAN_LIMIT = 100_000


def _post_hooks():
    """Counters read from a call's arguments or result.

    name -> (counter, value(args, result), how values combine)
    """

    def serialized(args, result):
        return len(result.encode())

    hooks = {
        "exact.correlator": ("exact.correlator.det_fallbacks",
                             lambda args, r: int(r.route.value == "det"), operator.add),
        "exact.r_value": ("exact.r_value.terms", lambda args, r: args[0], operator.add),
        "exact.log_r_table": ("exact.log_r_table.rows", lambda args, r: args[0] + 1, operator.add),
        "exact.correlator_det": ("exact.correlator_det.flops",
                                 lambda args, r: 2 * args[0] ** 3 / 3, operator.add),
        "ed.spin_sector": ("ed.sector_dim", lambda args, r: r.dimension, max),
    }
    for table in ("comparison", "constants", "scaling"):
        for fmt in ("csv", "json"):
            hooks[f"tables.{table}_to_{fmt}"] = ("tables.bytes_out", serialized, operator.add)
    return hooks


class Tracer:
    """Span recorder with one parent stack per thread."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (sid, fid, start_ns, end_ns, parent_sid, thread)
        self.counted: dict[int, list[int]] = {}  # fid -> [calls, ns] past LEAF_SPAN_LIMIT
        self.leaf_ns: dict[int, int] = {}  # parent sid -> ns of counted calls beneath it
        self._hooks = _post_hooks()
        self.counters: dict[str, float] = {hook[0]: 0 for hook in self._hooks.values()}
        self._sids = itertools.count(1)
        self._parents: set[int] = set()  # fids that have had a child span
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[tuple[int, int]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = stack
        return stack

    def _count(self, hook, args, result) -> None:
        counter, value, combine = hook
        with self._lock:
            self.counters[counter] = combine(self.counters[counter], value(args, result))

    def wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        calls = itertools.count(1)
        hook = self._hooks.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread has no open span of its own; its rows belong to the
            # span the main thread is waiting in.
            top = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            parent = top[0] if top else 0
            if next(calls) > LEAF_SPAN_LIMIT and fid not in self._parents:
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    with self._lock:
                        entry = self.counted.setdefault(fid, [0, 0])
                        entry[0] += 1
                        entry[1] += dt
                        self.leaf_ns[parent] = self.leaf_ns.get(parent, 0) + dt
            if top:
                self._parents.add(top[1])
            sid = next(self._sids)
            stack.append((sid, fid))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.spans.append((sid, fid, t0, t1, parent, threading.get_ident()))
            if hook:
                self._count(hook, args, result)
            return result

        return traced

    def dump(self, path: str, caches: dict) -> None:
        doc = {
            "names": self.names,
            "spans": self.spans,
            "counted": {str(k): v for k, v in self.counted.items()},
            "leaf_ns": {str(k): v for k, v in self.leaf_ns.items()},
            "counters": self.counters,
            "caches": caches,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _traceable(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)) and getattr(
        obj, "__module__", ""
    ).startswith("xxchain.")


def instrument(tracer: Tracer) -> dict:
    """Wrap every public xxchain function everywhere it is bound; return the lru caches."""
    import xxchain

    modules = [xxchain] + [
        importlib.import_module(f"xxchain.{info.name}") for info in pkgutil.iter_modules(xxchain.__path__)
    ]
    wrappers: dict[int, object] = {}
    caches = {}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not _traceable(obj):
                continue
            if id(obj) not in wrappers:
                name = f"{obj.__module__.removeprefix('xxchain.')}.{obj.__qualname__}"
                wrappers[id(obj)] = tracer.wrap(name, obj)
                if hasattr(obj, "cache_info"):
                    caches[name] = obj
            setattr(module, attr, wrappers[id(obj)])
    cli = sys.modules["xxchain.cli"]
    cli._row_values = tracer.wrap("cli.rows", cli._row_values)
    table = sys.modules["xxchain.tables"].RouteComparison
    table.__post_init__ = tracer.wrap("tables.build", table.__post_init__)
    return caches


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    caches = {}
    code = 1
    try:
        caches = instrument(tracer)
        code = sys.modules["xxchain.cli"].main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        info = {name: list(fn.cache_info()[:2]) for name, fn in caches.items()}
        tracer.dump(out_path, info)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
