"""Traced run: spans and counts at inforate's layer boundaries, from outside.

``Tracer.install`` wraps the public functions of each layer wherever the
calling module looks them up (the package namespace, a module's own
globals, or the names another module imported), and restores them on
exit.  Every call of a wrapped function opens a span (name, start, end,
parent).  Spans are kept in flat arrays in memory and written out once
at the end; a layer's self time is its spans' time minus the time of
their child spans.

Besides spans the tracer counts:

- ``estimate.quad``: calls, panels (integrand calls, one GK15 panel
  each) and points (integrand abscissae).  The integrand's own time is
  a span named after the function that called ``quad``, so quad's self
  time is its bisection and Gauss-Kronrod arithmetic alone, and nested
  integrals charge their Python integrand loops to their owner.
- ``process.cond_pdf``: calls and output points, through the kernels of
  the processes the workload passes in (``wrap_inputs``) and of those
  ``pushforward_process`` returns.  A pushforward kernel calls the input
  kernel, so both levels are counted.
- ``process.sample_path``: samples drawn.
"""

import dataclasses
import functools
import sys
from array import array
from time import perf_counter

import numpy as np

from inforate import _kernels, estimate, lossrate, lumpability, pbf, process, relloss

# (module or class, attribute, span name)
_FUNCTIONS = (
    (estimate, "cond_entropy_output_given_input", "estimate.cond_entropy_output_given_input"),
    (estimate, "cond_entropy_W_given_X", "estimate.cond_entropy_W_given_X"),
    (estimate, "cond_entropy_rate_quad", "estimate.cond_entropy_rate_quad"),
    (estimate, "mutual_information_hist", "estimate.mutual_information_hist"),
    (estimate, "diff_entropy_hist", "estimate.diff_entropy_hist"),
    (estimate, "markov_block_entropy_W", "estimate.markov_block_entropy_W"),
    (pbf.PiecewiseFunction, "preimage", "pbf.preimage"),
    (pbf.PiecewiseFunction, "eval_array", "pbf.eval_array"),
    (pbf, "compose", "pbf.compose"),
    (_kernels, "ar1_path", "kernels.ar1_path"),
    (_kernels, "cyclic_path", "kernels.cyclic_path"),
    (_kernels, "pair_counts", "kernels.pair_counts"),
    (lumpability, "check_lumpable", "lumpability.check_lumpable"),
    (lumpability, "check_tightness", "lumpability.check_tightness"),
    (lossrate, "loss_rate_analytic", "lossrate.loss_rate_analytic"),
    (lossrate, "loss_rate_bounds_mc", "lossrate.loss_rate_bounds_mc"),
    # loss_rate_bounds_mc calls the body of loss_rv directly, so the span
    # sits on that body to cover both callers
    (lossrate, "_loss_rv_detail", "lossrate.loss_rv"),
    (lossrate, "cascade_loss_rate", "lossrate.cascade_loss_rate"),
    (relloss, "empirical_constant_frequency", "relloss.empirical_constant_frequency"),
)

_UNATTRIBUTED = "trace.unattributed"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_raised = array("b")
        self._stack = [-1]
        self.quad_panels = 0
        self.quad_points = 0
        self.quad_outer_s = 0.0
        self._quad_depth = 0
        self.cond_pdf_points = 0
        self.samples = 0
        self.sample_path_s = 0.0

    # -- spans ----------------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return nid

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_raised.append(0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def _call(self, nid, fn, args, kwargs):
        idx = self._open(nid)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.span_raised[idx] = 1
            raise
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[nid] += 1
            return self._call(nid, fn, args, kwargs)

        return traced

    def wrap_generator(self, name, fn):
        """One call, and one span per resumption of the generator."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[nid] += 1
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        return traced

    # -- layer-specific wrappers -----------------------------------------

    def _wrap_quad(self, quad):
        nid = self.name_id("estimate.quad")
        unattributed = self.name_id(_UNATTRIBUTED)

        @functools.wraps(quad)
        def traced(f, lo, hi, *args, **kwargs):
            parent = self._stack[-1]
            owner = self.span_name[parent] if parent >= 0 else unattributed

            def integrand(x):
                self.quad_panels += 1
                self.quad_points += x.size
                return self._call(owner, f, (x,), {})

            self.calls[nid] += 1
            self._quad_depth += 1
            t0 = perf_counter()
            try:
                return self._call(nid, quad, (integrand, lo, hi) + args, kwargs)
            finally:
                self._quad_depth -= 1
                if self._quad_depth == 0:
                    self.quad_outer_s += perf_counter() - t0

        return traced

    def _wrap_cond_pdf(self, cond_pdf):
        nid = self.name_id("process.cond_pdf")

        @functools.wraps(cond_pdf)
        def traced(x2, x1):
            self.calls[nid] += 1
            out = self._call(nid, cond_pdf, (x2, x1), {})
            self.cond_pdf_points += np.size(out)
            return out

        return traced

    def wrap_process(self, proc):
        """A copy of a process whose kernel density is counted and timed."""
        if proc.kernel is None:
            return proc
        kernel = dataclasses.replace(
            proc.kernel, cond_pdf=self._wrap_cond_pdf(proc.kernel.cond_pdf)
        )
        return dataclasses.replace(proc, kernel=kernel)

    def wrap_inputs(self, inputs):
        return {
            key: self.wrap_process(val) if isinstance(val, process.StationaryProcess) else val
            for key, val in inputs.items()
        }

    def _wrap_pushforward(self, fn):
        traced = self.wrap("process.pushforward_process", fn)

        @functools.wraps(fn)
        def counted(f, proc):
            return self.wrap_process(traced(f, proc))

        return counted

    def _wrap_sample_path(self, fn):
        traced = self.wrap("process.sample_path", fn)

        @functools.wraps(fn)
        def counted(proc, n, *args, **kwargs):
            t0 = perf_counter()
            out = traced(proc, n, *args, **kwargs)
            self.sample_path_s += perf_counter() - t0
            self.samples += out.values.size
            return out

        return counted

    # -- installation -----------------------------------------------------

    def install(self):
        """Patch every lookup site; returns a callable that undoes it."""
        replaced = {}  # id(original) -> (original, wrapper)
        class_patches = []

        def add(owner, attr, wrapper):
            orig = getattr(owner, attr)
            if isinstance(owner, type):
                class_patches.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
            else:
                replaced[id(orig)] = (orig, wrapper)

        for owner, attr, name in _FUNCTIONS:
            add(owner, attr, self.wrap(name, getattr(owner, attr)))
        add(
            pbf.PiecewiseFunction,
            "preimage_terms",
            self.wrap_generator("pbf.preimage_terms", pbf.PiecewiseFunction.preimage_terms),
        )
        add(estimate, "quad", self._wrap_quad(estimate.quad))
        add(process, "pushforward_process", self._wrap_pushforward(process.pushforward_process))
        add(process, "sample_path", self._wrap_sample_path(process.sample_path))

        module_patches = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "inforate" or mod_name.startswith("inforate.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    module_patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

        def uninstall():
            for mod, attr, val in module_patches:
                setattr(mod, attr, val)
            for owner, attr, orig in class_patches:
                setattr(owner, attr, orig)

        return uninstall

    # -- results ----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.span_raised, dtype=np.int8).copy(),
        }

    def self_times(self):
        """Seconds of self time per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = np.bincount(a["name"], weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def raised_counts(self):
        a = self.arrays()
        counts = np.bincount(a["name"], weights=a["raised"], minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def call_counts(self):
        return dict(zip(self.names, self.calls))

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_metrics(tracer, scale=1.0):
    """Per-layer metrics of one traced round, without set-up and overhead.

    ``scale`` turns the spans' wall seconds into reference seconds (see
    calibrate.py); counts are left as they are.
    """
    own = tracer.self_times()
    calls = tracer.call_counts()
    cond_calls = calls.get("process.cond_pdf", 0)
    quad_s = tracer.quad_outer_s * scale
    sample_s = tracer.sample_path_s * scale
    m = {
        "estimate.quad.calls": (calls.get("estimate.quad", 0), "count"),
        "estimate.quad.panels": (tracer.quad_panels, "count"),
        "estimate.quad.points": (tracer.quad_points, "count"),
        "estimate.quad.points_per_s": (
            tracer.quad_points / quad_s if quad_s else 0.0,
            "1/s",
        ),
        "process.sample_path.samples_per_s": (
            tracer.samples / sample_s if sample_s else 0.0,
            "1/s",
        ),
        "process.cond_pdf.calls": (cond_calls, "count"),
        "process.cond_pdf.points_per_call": (
            tracer.cond_pdf_points / cond_calls if cond_calls else 0.0,
            "count",
        ),
    }
    for name in SELF_S:
        m[f"{name}.self_s"] = (own.get(name, 0.0) * scale, "s")
    for name in CALLS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    return m


SELF_S = (
    "estimate.quad",
    "process.cond_pdf",
    "estimate.cond_entropy_output_given_input",
    "estimate.cond_entropy_W_given_X",
    "estimate.cond_entropy_rate_quad",
    "estimate.mutual_information_hist",
    "estimate.diff_entropy_hist",
    "estimate.markov_block_entropy_W",
    "pbf.preimage_terms",
    "pbf.preimage",
    "pbf.eval_array",
    "pbf.compose",
    "process.sample_path",
    "kernels.ar1_path",
    "kernels.cyclic_path",
    "kernels.pair_counts",
    "lumpability.check_lumpable",
    "lumpability.check_tightness",
    "lossrate.loss_rate_analytic",
    "lossrate.loss_rate_bounds_mc",
    "lossrate.loss_rv",
    "lossrate.cascade_loss_rate",
    "relloss.empirical_constant_frequency",
)

CALLS = (
    "estimate.mutual_information_hist",
    "pbf.preimage_terms",
    "pbf.preimage",
    "lumpability.check_lumpable",
    "lossrate.loss_rate_analytic",
)
