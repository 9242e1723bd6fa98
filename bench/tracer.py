"""Span tracer that wraps jkepler's public functions from outside the program.

A wrapped function is replaced wherever callers look it up: every jkepler
module attribute bound to it (``cli`` imports ``verify_tkk_ops`` and
``restriction_degeneracy`` by name, ``commutator`` reaches ``weyl.compose``
through the module global), or the class attribute for methods.  Each call
records a span ``[name, start, end, parent, op]`` in memory; hot scalar
methods are only counted.  ``restore`` puts every original back.

A layer's self time is its span time minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager

from jkepler import algebra, cli, cone, conformal, divalg, phase, symfun, weyl
from jkepler.scalars import CQ


def _compose_terms(counts, args, out):
    a, b = args[0], args[1]
    counts["weyl.compose.terms_in"] += len(a.terms) * len(b.terms)
    counts["weyl.compose.terms_out"] += len(out.terms)


def _poisson_poly_terms(counts, args, out):
    counts["phase.poisson_poly.terms_out"] += len(out.terms)


# (layer name, owner, attribute names, per-call counter hook)
SPAN_TARGETS = [
    ("weyl.compose", weyl, ("compose",), _compose_terms),
    ("weyl.acute", weyl, ("acute_s", "acute_x", "acute_y"), None),
    ("weyl.apply_op", weyl, ("apply_op",), None),
    ("weyl.restriction_degeneracy", weyl, ("restriction_degeneracy",), None),
    ("phase.poisson_poly", phase, ("poisson_poly",), _poisson_poly_terms),
    ("phase.poisson", phase, ("poisson",), None),
    ("phase.moments", phase, ("moment_s", "moment_x", "moment_y"), None),
    ("conformal.co_bracket", conformal, ("co_bracket",), None),
    ("conformal.certify", conformal, ("_certify",), None),
    ("algebra.product", algebra.Algebra, ("product",), None),
    ("algebra.lmul_matrix", algebra.Algebra, ("lmul_matrix",), None),
    ("algebra.smul_matrix", algebra.Algebra, ("smul_matrix",), None),
    ("algebra.make_algebra", algebra, ("make_algebra",), None),
    ("symfun.elementary_from_power", symfun, ("elementary_from_power",), None),
    ("cone.sample_cone_point", cone, ("sample_cone_point",), None),
    ("cone.r_laplace_apply", cone, ("r_laplace_apply",), None),
    ("cone.crosscheck", cone, ("kepler_metric_crosscheck", "measure_crosscheck"), None),
    ("cli.run", cli, ("run",), None),
    ("cli.emit", cli, ("emit",), None),
]

COUNT_TARGETS = [
    ("scalars.cq_ops", CQ, ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                            "__rmul__", "__truediv__", "__rtruediv__", "__neg__")),
    ("algebra.triple.calls", algebra.Algebra, ("triple",)),
    ("divalg.mul.calls", divalg, ("mul",)),
]

# The exact str(V) span is built on the first exact certification of a fresh
# algebra; that call gets its own span.
STR_SPAN = ("conformal.str_span.build", conformal, "_str_span_exact")

ROOT = "op"


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, op id]
        self.counts = Counter()
        self.op = None
        self.missing = []          # targets absent from this version of the program
        self._stack = []
        self._patches = []         # (owner, attribute, original)

    # --- recording ---------------------------------------------------------

    def _enter(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, op_id):
        """Root span around one op; spans inside it carry its id."""
        self.op = op_id
        idx = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(idx)
            self.op = None

    # --- wrapping ----------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".failed"] += 1
                raise
            finally:
                tracer._exit(idx)
            if hook is not None:
                hook(tracer.counts, args, out)
            return out
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _str_span_wrapper(self, name, fn):
        tracer = self
        seen = weakref.WeakSet()

        @functools.wraps(fn)
        def wrapper(alg):
            if alg in seen:
                return fn(alg)
            seen.add(alg)
            idx = tracer._enter(name)
            try:
                return fn(alg)
            finally:
                tracer._exit(idx)
        return wrapper

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = make(orig)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, orig))
            return
        for mod in [m for k, m in sys.modules.items() if k == "jkepler" or k.startswith("jkepler.")]:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, orig))

    def install(self):
        for name, owner, attrs, hook in SPAN_TARGETS:
            for attr in attrs:
                self._patch(owner, attr, lambda fn, n=name, h=hook: self._span_wrapper(n, fn, h))
        for name, owner, attrs in COUNT_TARGETS:
            for attr in attrs:
                self._patch(owner, attr, lambda fn, n=name: self._count_wrapper(n, fn))
        name, owner, attr = STR_SPAN
        self._patch(owner, attr, lambda fn: self._str_span_wrapper(name, fn))

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # --- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict]:
        """(self seconds, inclusive seconds, calls) per span name."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s, incl, calls = defaultdict(float), defaultdict(float), Counter()
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - child[idx]
            incl[name] += t1 - t0
            calls[name] += 1
        return self_s, incl, calls

    def root_seconds(self) -> float:
        return sum(t1 - t0 for name, t0, t1, parent, _ in self.spans if parent is None)

    def write_spans(self, path):
        """Gzipped tab-separated spans: name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{'' if parent is None else parent}\t{op}\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers named as in BENCHMARK.json (counts and seconds)."""
    self_s, incl, calls = tracer.self_times()
    c = tracer.counts
    return {
        "weyl.compose.calls": calls["weyl.compose"],
        "weyl.compose.self_s": self_s["weyl.compose"],
        "weyl.compose.terms_in": c["weyl.compose.terms_in"],
        "weyl.compose.terms_out": c["weyl.compose.terms_out"],
        "weyl.acute.self_s": self_s["weyl.acute"],
        "weyl.apply_op.calls": calls["weyl.apply_op"],
        "weyl.apply_op.self_s": self_s["weyl.apply_op"],
        "phase.poisson_poly.calls": calls["phase.poisson_poly"],
        "phase.poisson_poly.self_s": self_s["phase.poisson_poly"],
        "phase.poisson_poly.terms_out": c["phase.poisson_poly.terms_out"],
        "phase.poisson.self_s": self_s["phase.poisson"],
        "phase.moments.self_s": self_s["phase.moments"],
        "scalars.cq_ops": c["scalars.cq_ops"],
        "conformal.str_span.builds": calls["conformal.str_span.build"],
        "conformal.str_span.build_s": incl["conformal.str_span.build"],
        "conformal.co_bracket.calls": calls["conformal.co_bracket"],
        "conformal.co_bracket.self_s": self_s["conformal.co_bracket"],
        "conformal.certify.calls": calls["conformal.certify"],
        "conformal.certify.self_s": self_s["conformal.certify"],
        "algebra.product.calls": calls["algebra.product"],
        "algebra.product.self_s": self_s["algebra.product"],
        "algebra.lmul_matrix.self_s": self_s["algebra.lmul_matrix"],
        "algebra.smul_matrix.self_s": self_s["algebra.smul_matrix"],
        "algebra.triple.calls": c["algebra.triple.calls"],
        "algebra.make_algebra.calls": calls["algebra.make_algebra"],
        "algebra.make_algebra.self_s": self_s["algebra.make_algebra"],
        "divalg.mul.calls": c["divalg.mul.calls"],
        "symfun.elementary_from_power.calls": calls["symfun.elementary_from_power"],
        "symfun.elementary_from_power.self_s": self_s["symfun.elementary_from_power"],
        "cone.sample_cone_point.calls": calls["cone.sample_cone_point"],
        "cone.sample_cone_point.self_s": self_s["cone.sample_cone_point"],
        "cone.r_laplace_apply.self_s": self_s["cone.r_laplace_apply"],
        "cone.crosscheck.self_s": self_s["cone.crosscheck"],
        "weyl.restriction_degeneracy.calls": calls["weyl.restriction_degeneracy"],
        "weyl.restriction_degeneracy.self_s": self_s["weyl.restriction_degeneracy"],
        "weyl.restriction_degeneracy.failed": c["weyl.restriction_degeneracy.failed"],
        "cli.run.self_s": self_s["cli.run"],
        "cli.emit.self_s": self_s["cli.emit"],
    }
