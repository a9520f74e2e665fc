"""Run one heckeb CLI command with its layers wrapped in timing spans.

Usage:  python3 perfbench/tracer.py <src dir> <heckeb cli arguments...>

Every public function and method of the seven heckeb modules (plus
``scalars._canonicalize``, the canonicaliser behind non-canonical
``RationalFunction`` constructions) is replaced by a wrapper that times the
call.  A wrapper is installed under every name that binds the original in any
heckeb module, so ``from .rep import rho`` in ``schur`` and ``cli`` is traced
too.  Nothing under ``src/`` is changed: the patching happens in memory in
this process only.

Spans are aggregated per name as they close (count, total time, self time),
because the scalar entry points close about 10^5 spans per run.  Self time is
a span's duration minus the durations of the wrapped calls it made.
Probes attached to a few names add counters (nonzeros produced, pivots,
cache keys seen).  The CLI's stdout is left untouched; the aggregate is
written to stderr as one line starting with ``TRACE_MARK``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types

LAYERS = ("scalars", "exactlinalg", "weylcomb", "hecke", "rep", "schur", "cli")
TRACE_MARK = "perfbench-trace "

# Called far more often than they cost: O(1) predicates, hashing and
# printing.  Their time stays in the caller's self time.
SKIP = frozenset(
    {
        "__bool__",
        "__eq__",
        "__hash__",
        "__repr__",
        "__str__",
        "__call__",
        "is_one",
        "term_count",
        "support_size",
        "min_exponents",
        "leading_key",
        "content",
        "length_split",
        "length",
    }
)
# Private names that are layer boundaries in their own right.
EXTRA = {"scalars": ("_canonicalize",)}


class Tracer:
    def __init__(self):
        self.totals = {}  # name -> [count, total_s, self_s]
        self.counters = {}
        self.seen = {}  # counter name -> set of keys
        self._stack = [[0.0]]

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def see(self, name, key):
        self.seen.setdefault(name, set()).add(key)

    def wrap(self, name, fn, probe=None):
        clock = time.perf_counter
        stack = self._stack
        rec = self.totals.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
            if probe is not None:
                probe(self, args, kwargs, out)
            return out

        span.__perfbench_original__ = fn
        return span

    def report(self):
        return {
            "spans": self.totals,
            "counters": self.counters,
            "distinct": {k: len(v) for k, v in self.seen.items()},
        }


# -- probes: counters measured where the work happens ------------------------


def _canonicalize_probe(t, args, kwargs, out):
    if len(args[1].terms) == 1:
        t.count("scalars.canonicalize.monomial_den")


def _gcd_probe(t, args, kwargs, out):
    if not out.is_one():
        t.count("scalars.poly_gcd.nontrivial")


def _matmul_probe(t, args, kwargs, out):
    t.count("exactlinalg.matmul.nnz_out", len(out.entries))


def _echelon_probe(t, args, kwargs, out):
    m = args[0]
    t.count("exactlinalg.echelon.cells", m.nrows * m.ncols)
    if isinstance(out, int):  # rank()
        t.count("exactlinalg.echelon.pivots", out)
    else:  # kernel_basis()
        t.count("exactlinalg.echelon.pivots", m.ncols - len(out))


def _insert_probe(t, args, kwargs, out):
    if out:
        t.count("exactlinalg.insert.grew")


def _hecke_mul_probe(t, args, kwargs, out):
    if hasattr(out, "terms"):
        t.count("hecke.mul.support_out", len(out.terms))


def _rho_probe(t, args, kwargs, out):
    t.count("rep.rho.support_total", len(args[0].terms))


def _rho_basis_probe(t, args, kwargs, out):
    n, d, w, bk = _bind_rho_basis(*args, **kwargs)
    t.see("rep.rho_basis", (n, d, w.images, bk.key))


def _bind_rho_basis(n, d, w, bk):
    return n, d, w, bk


PROBES = {
    "scalars._canonicalize": _canonicalize_probe,
    "scalars.poly_gcd": _gcd_probe,
    "exactlinalg.ExactMatrix.__mul__": _matmul_probe,
    "exactlinalg.ExactMatrix.rank": _echelon_probe,
    "exactlinalg.ExactMatrix.kernel_basis": _echelon_probe,
    "exactlinalg.Subspace.insert": _insert_probe,
    "hecke.HeckeElement.__mul__": _hecke_mul_probe,
    "rep.rho": _rho_probe,
    "rep.rho_basis": _rho_basis_probe,
}


# -- installation ------------------------------------------------------------


def _traceable(obj, modname):
    if isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
        return getattr(obj, "__module__", None) == modname
    return False


def _wanted(short):
    if short in SKIP:
        return False
    return not short.startswith("_") or (short.startswith("__") and short.endswith("__"))


def install(tracer):
    """Wrap the heckeb layers in place; returns the imported modules."""
    mods = {name: importlib.import_module("heckeb." + name) for name in LAYERS}
    replaced = {}  # id(original) -> wrapper
    for layer, mod in mods.items():
        modname = mod.__name__
        for attr, obj in list(vars(mod).items()):
            qual = "%s.%s" % (layer, attr)
            if _traceable(obj, modname) and (
                _wanted(attr) or attr in EXTRA.get(layer, ())
            ):
                replaced[id(obj)] = tracer.wrap(qual, obj, PROBES.get(qual))
            elif isinstance(obj, type) and obj.__module__ == modname:
                _install_class(tracer, layer, obj)
    # rebind every name that refers to a wrapped function, in every module
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            w = replaced.get(id(obj))
            if w is not None and w.__perfbench_original__ is obj:
                setattr(mod, attr, w)
    return mods


def _install_class(tracer, layer, cls):
    for attr, raw in list(vars(cls).items()):
        qual = "%s.%s.%s" % (layer, cls.__name__, attr)
        if not _wanted(attr) or attr in ("__init__", "__new__", "__init_subclass__"):
            continue
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(qual, raw.__func__, PROBES.get(qual))))
        elif isinstance(raw, types.FunctionType):
            setattr(cls, attr, tracer.wrap(qual, raw, PROBES.get(qual)))


def main(argv):
    src, cli_args = argv[0], argv[1:]
    sys.path.insert(0, src)
    tracer = Tracer()
    mods = install(tracer)
    try:
        code = mods["cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.report()) + "\n")
        sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
