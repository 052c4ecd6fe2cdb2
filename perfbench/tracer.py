"""Span tracing of the gasbox layers from outside the package.

``Tracer.install`` replaces every public function of every loaded
``gasbox`` module, wherever a ``gasbox`` module has bound it, and every
public method of the classes those modules define, with a wrapper that
records a span: name, start, end, parent span and run phase.  A function
returned by a wrapped call (the MMS forcing closure) is wrapped too.  The
wrappers pass arguments and results through untouched, so the traced run
computes bit for bit what the untraced run computes.

Span names are ``<module>.<function>`` or ``<module>.<Class>.<method>``
with the ``gasbox.`` prefix dropped; the module is the layer.  Spans stay
in memory until ``summary`` folds them into per-name counts and times.
"""

import enum
import functools
import inspect
import sys
import time

# Extra per-call quantities recorded for a few spans.  Each reads the
# call's arguments or result; if the call's shape no longer fits, the
# quantity is dropped with a warning and the run goes on.


def _nodes_of_first_array(args, kwargs, result):
    u5 = args[0] if args else next(iter(kwargs.values()))
    size = 1
    for n in u5.shape[1:]:
        size *= n
    return size


def _snapshot_bytes(args, kwargs, result):
    import os

    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def _history_bytes(args, kwargs, result):
    return sum(u.nbytes for _, u in result.history)


EXTRAS = {
    "rhs.assemble_rhs": _nodes_of_first_array,
    "snapshot.write_snapshot": _snapshot_bytes,
    "driver.simulate": _history_bytes,
}


def warn(message):
    print(f"perfbench warning: {message}", file=sys.stderr)


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, phase, extra]
        self.spans = []
        self.phase = "setup"
        self.installed = set()
        self.failed_extras = set()
        self._stack = []
        self._wrappers = {}

    def wrap(self, name, fn):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        spans, stack = self.spans, self._stack
        extra = EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None and name not in self.failed_extras:
                try:
                    rec[5] = extra(args, kwargs, result)
                except Exception as exc:  # a changed signature drops the quantity only
                    self.failed_extras.add(name)
                    warn(f"cannot read the extra quantity of {name}: {exc!r}")
            if inspect.isfunction(result) and _layer(result) is not None:
                result = self.wrap(f"{_layer(result)}.{result.__name__}", result)
            return result

        traced.__wrapped_by_perfbench__ = True
        self._wrappers[key] = traced
        self.installed.add(name)
        return traced

    def install(self):
        """Wrap the public functions and methods of every loaded gasbox module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gasbox" or n.startswith("gasbox."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or hasattr(value, "__wrapped_by_perfbench__"):
                    continue
                if inspect.isfunction(value) and _layer(value) is not None:
                    setattr(module, attr, self.wrap(_span_name(value), value))
                elif inspect.isclass(value) and _wraps_class(value, module):
                    for meth, fn in list(vars(value).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            setattr(value, meth, self.wrap(_span_name(fn), fn))

    def summary(self, loop_name, rhs_name, step_name):
        """Fold spans into per-phase, per-name statistics.

        For every name: count, total (inclusive) and self seconds, the
        number of calls made inside a ``loop_name`` span and inside an
        ``rhs_name`` span, and the sum of its extra quantity.  Also the
        per-layer self seconds of the solve phase and the durations of
        ``step_name`` spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        in_loop = [False] * len(spans)
        in_rhs = [False] * len(spans)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                pname = spans[parent][0]
                in_loop[i] = in_loop[parent] or pname == loop_name
                in_rhs[i] = in_rhs[parent] or pname == rhs_name
        stats = {"setup": {}, "solve": {}}
        layer_self = {}
        steps = []
        for i, (name, start, end, _, phase, extra) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            s = stats[phase].setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0,
                       "loop_count": 0, "rhs_count": 0, "extra": 0})
            s["count"] += 1
            s["total_s"] += dur
            s["self_s"] += own
            s["loop_count"] += in_loop[i]
            s["rhs_count"] += in_rhs[i]
            if extra is not None:
                s["extra"] += extra
            if phase == "solve":
                layer = name.split(".", 1)[0]
                layer_self[layer] = layer_self.get(layer, 0.0) + own
                if name == step_name:
                    steps.append(dur)
        for name in self.failed_extras:
            for phase in stats.values():
                if name in phase:
                    phase[name]["extra"] = None
        return {"stats": stats, "layer_self_s": layer_self, "step_s": steps,
                "installed": sorted(self.installed)}


def _layer(fn):
    module = getattr(fn, "__module__", None) or ""
    if module.startswith("gasbox."):
        return module[len("gasbox."):]
    return None


def _span_name(fn):
    qual = fn.__qualname__
    return f"{_layer(fn)}.{qual}"


def _wraps_class(cls, module):
    return (cls.__module__ == module.__name__
            and not issubclass(cls, (enum.Enum, BaseException)))
