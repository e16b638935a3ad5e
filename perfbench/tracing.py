"""Span recorder and the hook points the traced benchmark run wraps.

Every hook wraps one public function or method of a permfact module from
outside the package: the benchmark changes nothing under ``src/``.  A span is
(name, start, end, parent); spans are kept in flat arrays in memory and
written out once, after the timed region.  A hook point that no longer exists
raises ``HookMissing``, so a renamed function cannot silently drop its metric.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "permfact"

# (module, attribute path, metric prefix, extra statistic)
#   extra: None, "distinct" (distinct argument tuples / calls) or "cells"
#   (sum of rows * cols of the first argument).
HOOKS = [
    ("cyclofield", "CycNum.__mul__", "cyclofield.mul", None),
    ("cyclofield", "CycNum.inverse", "cyclofield.inverse", None),
    ("cyclofield", "CycNum.zeta", "cyclofield.zeta", None),
    ("cyclofield", "CycNum.__pow__", "cyclofield.pow", None),
    ("cyclofield", "quantum_int", "cyclofield.quantum_int", "distinct"),
    ("polyring", "MPoly.__mul__", "polyring.mul", None),
    ("polyring", "MPoly.subs", "polyring.subs", None),
    ("polyring", "exact_div", "polyring.exact_div", None),
    ("polyring", "MPoly.__pow__", "polyring.pow", None),
    ("linop", "LinOp.compose", "linop.compose", None),
    ("linop", "LinOp.equals", "linop.equals", None),
    ("mfcore", "MFMorphism.compose", "mfcore.compose", None),
    ("mfcore", "MFMorphism.equals", "mfcore.equals", None),
    ("mfcore", "MFMorphism.is_cycle", "mfcore.is_cycle", None),
    ("mfcore", "twist_morphism", "mfcore.twist_morphism", None),
    ("mfcore", "tensor_mf", "mfcore.tensor_mf", None),
    ("mfcore", "tensor_morphism", "mfcore.tensor_morphism", None),
    ("mfcore", "perm_mf", "mfcore.perm_mf", "distinct"),
    ("mfcore", "s_iso", "mfcore.s_iso", "distinct"),
    ("mfcore", "chi", "mfcore.chi", "distinct"),
    ("mfcore", "mu", "mfcore.mu", "distinct"),
    ("correspondence", "tau", "correspondence.tau", "distinct"),
    ("invariants", "smith_normal_form", "invariants.smith_normal_form", "cells"),
    ("invariants", "HomologyData.__init__", "invariants.homology", None),
    ("invariants", "is_homotopy_iso", "invariants.is_homotopy_iso", None),
    ("invariants", "homotopy_solve", "invariants.homotopy_solve", None),
    ("graded", "g_pair", "graded.g_pair", None),
    ("graded", "graded_hom_dim", "graded.graded_hom_dim", None),
    ("temperleylieb", "TLMorphism.compose", "temperleylieb.compose", None),
    ("temperleylieb", "jw", "temperleylieb.jw", None),
    ("temperleylieb", "evaluate_F", "temperleylieb.evaluate_F", None),
    ("temperleylieb", "enumerate_diagrams", "temperleylieb.enumerate_diagrams", None),
]

# Modules whose whole self time is one metric (``<module>.self_s``): every
# function and every non-dunder method (plus ``__init__``) defined there.
WHOLE_MODULES = ("fusionring", "cftside")

# The check runner: one span per named check, ``cli.check.<name>``.
CHECK_HOOK = ("cli", "Check.run")


class HookMissing(RuntimeError):
    """A wrapped hook point no longer exists in the program."""


def _freeze(value):
    """A hashable, order-independent stand-in for one call argument."""
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted((_freeze(v) for v in value), key=repr))
    if isinstance(value, dict):
        return ("dict",) + tuple(sorted(((k, _freeze(v)) for k, v in value.items()), key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    try:
        hash(value)
    except TypeError:
        return ("repr", repr(value))
    return value


class Tracer:
    """Records spans in flat arrays; ``install`` patches the hook points."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.distinct: dict[str, set] = {}
        self.cells: dict[str, int] = {}

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, label=None, key=None, size=None):
        """Wrap fn so that each call records one span.

        label(args) -> span name suffix; key(args, kwargs) -> canonical call
        for the distinct ratio; size(args) -> cell count to accumulate.
        """
        nid = self._nid(name)
        stack, clock = self._stack, time.perf_counter
        name_append, parent_append = self.name_id.append, self.parent.append
        start_append, end_append, end = self.start.append, self.end.append, self.end

        if label is None and key is None and size is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(end)
                name_append(nid)
                parent_append(stack[-1])
                end_append(0.0)
                stack.append(idx)
                start_append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[idx] = clock()
                    stack.pop()

            return wrapper

        seen = self.distinct.setdefault(name, set()) if key else None
        cells = self.cells

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            this = nid if label is None else self._nid(f"{name}.{label(args)}")
            if key is not None:
                seen.add(key(args, kwargs))
            if size is not None:
                cells[name] = cells.get(name, 0) + size(args)
            idx = len(end)
            name_append(this)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    @staticmethod
    def _module(name):
        try:
            return importlib.import_module(f"{PACKAGE}.{name}")
        except ImportError as exc:
            raise HookMissing(f"module {PACKAGE}.{name} is gone: {exc}") from exc

    @staticmethod
    def _rebind(original, wrapper):
        """Point every permfact module global that names original at wrapper."""
        for modname, mod in list(sys.modules.items()):
            if modname == PACKAGE or modname.startswith(PACKAGE + "."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _patch(self, modname, path, name, extra=None, label=None):
        mod = self._module(modname)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or attr not in vars(owner):
            raise HookMissing(f"hook point {PACKAGE}.{modname}.{path} no longer exists")
        raw = vars(owner)[attr]
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw
        if not callable(fn):
            raise HookMissing(f"hook point {PACKAGE}.{modname}.{path} is not a function")
        key = size = None
        if extra == "distinct":
            sig = inspect.signature(fn)

            def key(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return _freeze(tuple(bound.arguments.values()))

        elif extra == "cells":

            def size(args):
                rows = args[0]
                return len(rows) * (len(rows[0]) if rows else 0)

        wrapper = self._span(name, fn, label=label, key=key, size=size)
        if owner is mod:
            self._rebind(fn, wrapper)
        else:
            setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
            # __rmul__ counts as multiplication too; aliased to __mul__ it is one hook
            if attr == "__mul__" and "__rmul__" in vars(owner):
                rmul = vars(owner)["__rmul__"]
                setattr(owner, "__rmul__", wrapper if rmul is fn else self._span(name, rmul))

    def _patch_whole_module(self, modname):
        mod = self._module(modname)
        full = f"{PACKAGE}.{modname}"
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value.__module__ == full:
                self._patch(modname, attr, f"{modname}.{attr}")
            elif inspect.isclass(value) and value.__module__ == full:
                for meth, fn in list(vars(value).items()):
                    if inspect.isfunction(fn) and (meth == "__init__" or not meth.startswith("__")):
                        self._patch(modname, f"{attr}.{meth}", f"{modname}.{attr}.{meth}")

    def install(self):
        for modname, path, name, extra in HOOKS:
            self._patch(modname, path, name, extra)
        for modname in WHOLE_MODULES:
            self._patch_whole_module(modname)
        modname, path = CHECK_HOOK
        self._patch(modname, path, "cli.check", label=lambda args: args[0].name)

    # -- results -------------------------------------------------------------

    def aggregate(self):
        """{span name: [calls, total seconds, self seconds]}."""
        n = len(self.end)
        child = array("d", bytes(8 * n))
        stats = [[0, 0.0, 0.0] for _ in self.names]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            row = stats[name_id[i]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
        return {self.names[k]: row for k, row in enumerate(stats)}

    def dump(self, path):
        """Write every span: a JSON header line, then the four raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.end),
                      "arrays": ["name_id:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
