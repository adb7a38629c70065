"""In-memory span and count tracer for the gsrel modules.

The tracer changes no file of the program.  While installed it rebinds
every public function of each gsrel module, in every ``gsrel.*`` namespace
that holds it (``variant_maps`` is bound in both ``gsrel.weightmap`` and
``gsrel.taxonomy``), to a wrapper that records one span per call: name,
start, end and parent.  ``WeightMap.__init__`` and ``WRel.__init__`` are
wrapped the same way, so a construction is a span too.  The monad-operation
bundle ``DEFAULT_OPS`` is rebuilt from the wrapped functions, because the
law suite calls eta/mu/psi/pushforward through it.

Semiring operations are counted, not timed: ``load_semiring`` returns a
``dataclasses.replace`` copy of each semiring whose ``add`` and ``mul``
count their calls.  The copy keeps the semiring's name and values, so the
report bytes do not change.

Spans stay in four flat arrays until the run ends; ``summary`` derives
call counts and self time (span duration minus the time covered by child
spans) from them, and ``write`` stores them.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import os
import sys
import time
from array import array

LAYERS = ("semiring", "weightmap", "wrel", "diagram", "taxonomy", "report", "cli")
CLASSES = (("weightmap", "WeightMap"), ("wrel", "WRel"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.semiring_ops = [0, 0]  # add, mul
        self.inputs = {}  # span name -> set of distinct argument keys
        self.sample_maps_returned = 0
        self.entries_compared = 0

    # -- wrapping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                span_start[idx] = t0
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _count_ops(self, sr):
        ops = self.semiring_ops

        def add(a, b, _add=sr.add):
            ops[0] += 1
            return _add(a, b)

        def mul(a, b, _mul=sr.mul):
            ops[1] += 1
            return _mul(a, b)

        return dataclasses.replace(sr, add=add, mul=mul)

    def _hooks(self) -> dict:
        """Result hooks for the counts that spans alone do not give."""
        from gsrel.weightmap import sample_maps
        from gsrel.wrel import variant_arrows

        def distinct(name, fn, *params):
            # Semirings are keyed by name, since each load builds a fresh
            # instance.  The call-site `tag` is left out: it only names the
            # caller, so two calls differing in it could share one pool.
            signature = inspect.signature(fn)

            def hook(args, kwargs, _result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(
                    v.name if k == "sr" else v for k, v in bound.arguments.items() if k in params
                )
                self.inputs.setdefault(name, set()).add(key)

            return hook

        sample_inputs = distinct(
            "weightmap.sample_maps", sample_maps, "sr", "word", "variant", "seed", "n"
        )

        def sampled(args, kwargs, result):
            sample_inputs(args, kwargs, result)
            self.sample_maps_returned += len(result)

        def compared(_args, _kwargs, result):
            self.entries_compared += result.checks_performed

        return {
            "weightmap.sample_maps": sampled,
            "wrel.variant_arrows": distinct(
                "wrel.variant_arrows", variant_arrows, "sr", "dom", "cod", "variant", "seed", "n"
            ),
            "diagram.check_term_equality": compared,
        }

    def install(self) -> None:
        import gsrel.cli  # noqa: F401  (loads every layer)
        from gsrel.taxonomy import MonadOps

        modules = {layer: sys.modules[f"gsrel.{layer}"] for layer in LAYERS}
        hooks = self._hooks()
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                target = fn
                if name == "semiring.load_semiring":
                    target = self._counting_loader(fn)
                wrapped[id(fn)] = self._wrap(name, target, hooks.get(name))
        namespaces = [m for n, m in sys.modules.items() if n == "gsrel" or n.startswith("gsrel.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrapped:
                    self._patch(ns, attr, wrapped[id(value)])
                elif isinstance(value, MonadOps):
                    fields = {
                        f.name: wrapped.get(id(getattr(value, f.name)), getattr(value, f.name))
                        for f in dataclasses.fields(value)
                    }
                    self._patch(ns, attr, MonadOps(**fields))
        for layer, cls_name in CLASSES:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, "__init__", self._wrap(f"{layer}.{cls_name}", cls.__init__))

    def _counting_loader(self, load):
        def load_counted(spec, *args, **kwargs):
            sr = load(spec, *args, **kwargs)
            return sr if sr is spec else self._count_ops(sr)

        return functools.update_wrapper(load_counted, load)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self seconds; plus the hook counts."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - child[i]
        spans = {
            name: {"calls": calls[i], "self_s": self_s[i]} for i, name in enumerate(self.names)
        }
        return {
            "spans": spans,
            "span_count": n,
            "semiring_add_ops": self.semiring_ops[0],
            "semiring_mul_ops": self.semiring_ops[1],
            "sample_maps_returned": self.sample_maps_returned,
            "distinct_inputs": {k: len(v) for k, v in self.inputs.items()},
            "entries_compared": self.entries_compared,
            "built_inside": self.built_inside("weightmap.sample_maps", "weightmap.WeightMap"),
        }

    def built_inside(self, outer: str, inner: str) -> int:
        """Spans named `inner` that ran while a span named `outer` was open."""
        if outer not in self._ids or inner not in self._ids:
            return 0
        o, k = self._ids[outer], self._ids[inner]
        names, parents = self.span_name, self.span_parent
        inside = bytearray(len(names))
        count = 0
        for i in range(len(names)):
            p = parents[i]
            flag = names[i] == o or (p >= 0 and inside[p])
            inside[i] = flag
            if flag and names[i] == k:
                count += 1
        return count

    def write(self, directory: str) -> None:
        """Store the spans: names.json (span names and array typecodes) plus
        one raw native-endian array file per column."""
        os.makedirs(directory, exist_ok=True)
        columns = ("span_name", "span_parent", "span_start", "span_end")
        with open(os.path.join(directory, "names.json"), "w", encoding="utf-8") as fh:
            typecodes = {c: getattr(self, c).typecode for c in columns}
            json.dump({"names": self.names, "typecodes": typecodes}, fh)
        for column in columns:
            with open(os.path.join(directory, f"{column}.bin"), "wb") as fh:
                getattr(self, column).tofile(fh)
