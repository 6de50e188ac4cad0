"""Per-layer tracing for the benchmark.

The tracer wraps sclab's public functions at every module binding (a
function imported by name, such as ``step_n`` in ``experiments`` and
``gallery``, is replaced in each namespace that holds it).  Spans (name,
start, end, parent) are kept in memory and written when the run ends; a
layer's self time is its spans' time minus the time of their child spans.
Calls that happen too often for a span (LogScalar constructions, Gram
lookups, germ ``B`` evaluations) are counted only.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from sclab import bump_profiles, experiments, gallery, germs, operator_probe, scale_core


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: List[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.distinct: Dict[str, set] = collections.defaultdict(set)
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        name_of: Optional[Callable] = None,
    ) -> Callable:
        """Wrap fn in a span; ``after(args, kwargs, result)`` records counts
        once the span has closed, ``name_of(args, kwargs)`` picks a sub-name."""
        tracer = self
        fixed_id = self._name_id(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            nid = tracer._name_id(name_of(args, kwargs)) if name_of else fixed_id
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            tracer.span_start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf()
                tracer._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable, before: Optional[Callable] = None) -> Callable:
        """Wrap fn so that each call while tracing adds one to ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
                if before is not None:
                    before(args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- installation -------------------------------------------------------

    def replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Rebind every module-level name that refers to ``original``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "sclab" and not modname.startswith("sclab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def replace_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )

    def layer_totals(self) -> Tuple[collections.Counter, collections.Counter, int]:
        """Calls and self seconds per span name, and the number of modulus
        spans whose parent is a certify span."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64
        )
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        calls: collections.Counter = collections.Counter()
        self_s: collections.Counter = collections.Counter()
        for nid, name in enumerate(self.names):
            mask = names == nid
            calls[name] = int(np.count_nonzero(mask))
            self_s[name] = float(np.sum(own[mask]))
        modulus_in_certify = 0
        if "germs.certify" in self._name_ids and "germs.modulus" in self._name_ids:
            par = parents[(names == self._name_ids["germs.modulus"]) & has_parent]
            modulus_in_certify = int(np.count_nonzero(names[par] == self._name_ids["germs.certify"]))
        return calls, self_s, modulus_in_certify


# ---------------------------------------------------------------------------
# what is traced


def _overlap_nodes(f: scale_core.GridFunction, g: scale_core.GridFunction) -> int:
    if f.x_end < g.x0 or g.x_end < f.x0:
        return 0
    offset = round((g.x0 - f.x0) / f.spacing)
    n = min(f.n_nodes, offset + g.n_nodes) - max(0, offset)
    return n if n >= 2 else 0


SEQ_MAPS = ("seq_diffeo", "seq_diffeo_inv", "rho_k_eval", "rho_k_tangent")
GRID_MAPS = (
    "rho_eval",
    "s_proj",
    "s_proj_diff",
    "s_tilde_eval",
    "s_tilde_inv",
    "h_eval",
    "h_diff",
    "h_transversality_data",
)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of sclab; ``tracer.uninstall`` undoes it."""
    c = tracer.counts

    def spans(layer: str, module, names, after=None) -> None:
        for n in names:
            original = getattr(module, n)
            tracer.replace_everywhere(original, tracer.span(layer, original, after))

    def l2_nodes(args, kwargs, result):
        c["scale_core.grid_inner.nodes"] += _overlap_nodes(args[0], args[1])

    def sobolev_nodes(args, kwargs, result):
        c["scale_core.grid_inner.nodes"] += (args[2] + 1) * _overlap_nodes(args[0], args[1])

    def combine_nodes(args, kwargs, result):
        c["scale_core.grid_combine.nodes"] += result.n_nodes

    spans("scale_core.grid_inner", scale_core, ["grid_l2_inner"], l2_nodes)
    spans("scale_core.grid_inner", scale_core, ["grid_sobolev_inner"], sobolev_nodes)
    spans("scale_core.grid_sobolev_norm", scale_core, ["grid_sobolev_norm"])
    spans("scale_core.grid_combine", scale_core, ["grid_combine"], combine_nodes)
    spans("scale_core.seq", scale_core, ["seq_inner", "seq_norm", "tail_projection"])
    tracer.replace_method(
        scale_core.LogScalar,
        "__post_init__",
        tracer.counter("scale_core.logscalar.ops", scale_core.LogScalar.__post_init__),
    )

    spans("bump_profiles.step_n", bump_profiles, ["step_n"])
    bind = inspect.signature(bump_profiles.shifted_bump).bind

    def shifted_key(args, kwargs, result):
        bound = bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.distinct["bump_profiles.shifted_bump"].add(tuple(bound.arguments.values()))

    spans("bump_profiles.shifted_bump", bump_profiles, ["shifted_bump"], shifted_key)

    def pairing_kind(args, kwargs):
        f = args[0] if args else kwargs["f"]
        log = isinstance(f, scale_core.AnalyticTailFunction)
        return "bump_profiles.pair_with_bump." + ("log" if log else "grid")

    pair = bump_profiles.pair_with_bump
    tracer.replace_everywhere(
        pair, tracer.span("bump_profiles.pair_with_bump.grid", pair, name_of=pairing_kind)
    )

    spans("gallery.seq_maps", gallery, SEQ_MAPS)
    spans("gallery.grid_maps", gallery, GRID_MAPS)

    fd = operator_probe.finite_diff_differential
    fd_span = tracer.span("operator_probe.fd", fd)

    def fd_counting_evals(handle, *args, **kwargs):
        if tracer.active:
            evals = tracer.counter("operator_probe.fd.evals", handle.eval)
            handle = dataclasses.replace(handle, eval=evals)
        return fd_span(handle, *args, **kwargs)

    tracer.replace_everywhere(fd, functools.wraps(fd)(fd_counting_evals))
    spans("operator_probe.svd", operator_probe, ["truncation_opnorm", "numerical_rank"])
    spans("operator_probe.dichotomy", operator_probe, ["opnorm_dichotomy"])

    def certified_pairs(args, kwargs, result):
        c["germs.certify.pairs"] += len(result.pairs)

    spans("germs.certify", germs, ["certify"], certified_pairs)
    spans("germs.modulus", germs, ["modulus_with_count"])
    spans("germs.dW_probe", germs, ["dW_opnorm_probe"])
    spans("germs.openness", germs, ["openness_probe"])

    gram = germs.GermContext.gram

    def gram_build(args, kwargs):
        ctx, level = args[0], args[1] if len(args) > 1 else kwargs["level"]
        if level not in ctx._grams:
            c["germs.gram.builds"] += 1

    tracer.replace_method(germs.GermContext, "gram", tracer.counter("germs.gram", gram, gram_build))
    make_germ = germs.make_germ

    def make_counted_germ(*args, **kwargs):
        germ = make_germ(*args, **kwargs)
        if not tracer.active:
            return germ
        return dataclasses.replace(germ, B=tracer.counter("germs.B.evals", germ.B))

    tracer.replace_everywhere(make_germ, functools.wraps(make_germ)(make_counted_germ))

    def report_checks(args, kwargs, result):
        c["experiments.checks"] += len(result.checks)

    spans("experiments.run", experiments, ["run"], report_checks)
    spans("experiments.emit", experiments, ["emit"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of the traced pass, by name, as (value, unit)."""
    calls, self_s, modulus_in_certify = tracer.layer_totals()
    c = tracer.counts
    out: Dict[str, Tuple[float, str]] = {}

    def timed(metric: str, span: str, with_calls: bool = True) -> None:
        if with_calls:
            out[metric + ".calls"] = (calls[span], "count")
        out[metric + ".self_ms"] = (1e3 * self_s[span], "ms")

    timed("scale_core.grid_inner", "scale_core.grid_inner")
    out["scale_core.grid_inner.nodes"] = (c["scale_core.grid_inner.nodes"], "count")
    timed("scale_core.grid_sobolev_norm", "scale_core.grid_sobolev_norm")
    timed("scale_core.grid_combine", "scale_core.grid_combine")
    out["scale_core.grid_combine.nodes"] = (c["scale_core.grid_combine.nodes"], "count")
    timed("scale_core.seq", "scale_core.seq")
    out["scale_core.logscalar.ops"] = (c["scale_core.logscalar.ops"], "count")

    timed("bump_profiles.step_n", "bump_profiles.step_n")
    timed("bump_profiles.shifted_bump", "bump_profiles.shifted_bump")
    out["bump_profiles.shifted_bump.distinct"] = (
        len(tracer.distinct["bump_profiles.shifted_bump"]),
        "count",
    )
    timed("bump_profiles.pair_with_bump.log", "bump_profiles.pair_with_bump.log")
    timed("bump_profiles.pair_with_bump.grid", "bump_profiles.pair_with_bump.grid")

    timed("gallery.seq_maps", "gallery.seq_maps")
    timed("gallery.grid_maps", "gallery.grid_maps")

    timed("operator_probe.fd", "operator_probe.fd")
    out["operator_probe.fd.evals_per_sweep"] = (
        _ratio(c["operator_probe.fd.evals"], calls["operator_probe.fd"]),
        "evals/call",
    )
    timed("operator_probe.svd", "operator_probe.svd")
    timed("operator_probe.dichotomy", "operator_probe.dichotomy", with_calls=False)

    timed("germs.certify", "germs.certify")
    out["germs.certify.modulus_per_pair"] = (
        _ratio(modulus_in_certify, c["germs.certify.pairs"]),
        "calls/pair",
    )
    timed("germs.modulus", "germs.modulus")
    out["germs.gram.calls"] = (c["germs.gram"], "count")
    out["germs.gram.builds"] = (c["germs.gram.builds"], "count")
    out["germs.gram.hit_ratio"] = (
        _ratio(c["germs.gram"] - c["germs.gram.builds"], c["germs.gram"]),
        "ratio",
    )
    out["germs.B.evals"] = (c["germs.B.evals"], "count")
    timed("germs.dW_probe", "germs.dW_probe", with_calls=False)
    timed("germs.openness", "germs.openness", with_calls=False)

    timed("experiments.run", "experiments.run", with_calls=False)
    timed("experiments.emit", "experiments.emit")
    out["experiments.checks"] = (c["experiments.checks"], "count")
    return out
