"""Span recorder and probes installed around pptoggle's public callables.

A probe replaces a callable in every pptoggle namespace that holds it, so
calls made through a module's own imported reference are seen too. Each call
made while a job runs becomes a span: name, job id, parent span, start, end,
busy time and the time its child spans cover. A wrapped generator is one
span whose busy time is the sum of its next() calls, each of which is a
child of the span that asked for the item. Spans stay in memory until the
pass ends.

Counts (calls, items yielded, objects built, state-map sizes) depend only on
the job inputs, so two traced passes of one seed must agree on them exactly.
"""

from __future__ import annotations

import gzip
import sys
import types
from collections import Counter
from time import perf_counter

NAME, JOB, PARENT, START, END, BUSY, CHILD, ITEMS = range(8)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.active = False
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.requested: set = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.job, parent, perf_counter(), 0.0, 0.0,
                           0.0, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        span = self.spans[idx]
        span[END] = perf_counter()
        span[BUSY] = span[END] - span[START]
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[BUSY]

    def peak(self, key: str, value: int):
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    def write(self, path):
        """Spans as tab-separated lines under a header naming the columns;
        start and end are perf_counter seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tjob\tparent\tstart\tend\tbusy\tchild\titems\n")
            fh.writelines(f"{s[NAME]}\t{s[JOB]}\t{s[PARENT]}\t{s[START]:.9f}\t"
                          f"{s[END]:.9f}\t{s[BUSY]:.9f}\t{s[CHILD]:.9f}\t"
                          f"{s[ITEMS]}\n" for s in self.spans)


class Probe:
    """Callable stand-in for a function or method; records one span per call.

    It copies the original's ``__code__`` because ``verify.run_suites``
    reads a suite's parameter names from it, and binds like a function when
    stored on a class.
    """

    def __init__(self, rec: Recorder, name: str, fn, observe=None):
        self.rec, self.name, self.fn, self.observe = rec, name, fn, observe
        self.__code__ = fn.__code__

    def __get__(self, obj, objtype=None):
        return self if obj is None else types.MethodType(self, obj)

    def __call__(self, *args, **kwargs):
        rec = self.rec
        if not rec.active:
            return self.fn(*args, **kwargs)
        idx = rec.open(self.name)
        try:
            result = self.fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if self.observe is not None:
            self.observe(rec, idx, args, kwargs, result)
        return result


class GeneratorProbe(Probe):
    def __call__(self, *args, **kwargs):
        if not self.rec.active:
            return self.fn(*args, **kwargs)
        return self._iterate(self.fn(*args, **kwargs))

    def _iterate(self, gen):
        rec = self.rec
        idx = len(rec.spans)
        parent = rec.stack[-1] if rec.stack else -1
        span = [self.name, rec.job, parent, perf_counter(), 0.0, 0.0, 0.0, 0]
        rec.spans.append(span)
        while True:
            consumer = rec.stack[-1] if rec.stack else -1
            rec.stack.append(idx)
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                t1 = perf_counter()
                rec.stack.pop()
                span[END] = t1
                span[BUSY] += t1 - t0
                if consumer >= 0:
                    rec.spans[consumer][CHILD] += t1 - t0
            span[ITEMS] += 1
            yield item


# ---------------------------------------------------------------------------
# observers: counts read off arguments and results at the layer boundary

def _count_objects(rec, idx, args, kwargs, result):
    rec.spans[idx][ITEMS] = len(result)


def _census_kept(rec, idx, args, kwargs, result):
    rec.spans[idx][ITEMS] = sum(result.counts.values())


def _transfer_states(rec, idx, args, kwargs, result):
    state = args[0]
    rec.counts["series.states_in"] += len(state)
    rec.counts["series.states_out"] += len(result)
    rec.counts["series.coeff_terms"] += sum(len(s.coeffs)
                                            for s in result.values())
    rec.peak("series.peak_states", max(len(state), len(result)))


def _word_request(rec, idx, args, kwargs, result):
    kind, legs = args[0], args[1]
    key = (kind, repr(legs if legs is None else
                      tuple(legs) if kind == "one-leg" else
                      (tuple(legs[0]), tuple(legs[1]))))
    if key in rec.requested:
        rec.counts["series.repeat_requests"] += 1
    rec.requested.add(key)


def _grid_pop(rec, idx, args, kwargs, result):
    _, i, j = args
    rec.counts["bijections.grid.nonzero_pops"] += bool(result)
    rec.peak("bijections.grid.max_side", max(i, j))


def _grid_push(rec, idx, args, kwargs, result):
    _, i, j, n = args
    rec.counts["bijections.grid.nonzero_pushes"] += bool(n)
    rec.peak("bijections.grid.max_side", max(i, j))


# (metric prefix, module, attribute path, generator?, observer)
FUNCTIONS = [
    ("series.evaluate_stable", "series", "evaluate_stable", False, _word_request),
    ("series.evaluate", "series", "evaluate", False, None),
    ("series.apply_vertex_op", "series", "apply_vertex_op", False, _transfer_states),
    ("series.minimal_exponent", "series", "minimal_exponent", False, None),
    ("series.hook_product", "series", "hook_product", False, None),
    ("series.mul", "series", "TruncatedSeries.__mul__", False, None),
    ("partitions.interlacers_below", "partitions", "interlacers_below", True, None),
    ("partitions.interlacers_above", "partitions", "interlacers_above", True, None),
    ("oracle.census", "oracle", "WeightCensus.take", False, _census_kept),
    ("oracle.enum_plane_partitions", "oracle", "enum_plane_partitions", False, _count_objects),
    ("oracle.enum_one_leg_spp", "oracle", "enum_one_leg_spp", False, _count_objects),
    ("oracle.enum_one_leg_rpp", "oracle", "enum_one_leg_rpp", False, _count_objects),
    ("oracle.enum_two_leg_spp", "oracle", "enum_two_leg_spp", False, _count_objects),
    ("oracle.enum_two_leg_rpp", "oracle", "enum_two_leg_rpp", False, _count_objects),
    ("configurations.PlanePartition", "configurations", "PlanePartition.__init__", False, None),
    ("configurations.OneLegSPP", "configurations", "OneLegSPP.__init__", False, None),
    ("configurations.OneLegRPP", "configurations", "OneLegRPP.__init__", False, None),
    ("configurations.TwoLegSPP", "configurations", "TwoLegSPP.__init__", False, None),
    ("configurations.TwoLegRPP", "configurations", "TwoLegRPP.__init__", False, None),
    ("configurations.HookTableau", "configurations", "HookTableau.__init__", False, None),
    ("configurations.minimal_weight", "configurations", "minimal_weight", False, None),
    ("bijections.pp_to_tableau", "bijections", "pp_to_tableau", False, None),
    ("bijections.tableau_to_pp", "bijections", "tableau_to_pp", False, None),
    ("bijections.one_leg_forward", "bijections", "one_leg_forward", False, None),
    ("bijections.one_leg_inverse", "bijections", "one_leg_inverse", False, None),
    ("bijections.two_leg_forward", "bijections", "two_leg_forward", False, None),
    ("bijections.two_leg_inverse", "bijections", "two_leg_inverse", False, None),
    ("bijections.stabilization_index", "bijections", "stabilization_index", False, None),
    ("bijections.two_leg_remnant", "bijections", "two_leg_remnant", False, None),
    ("bijections.grid.pop", "bijections", "ToggleGrid.pop", False, _grid_pop),
    ("bijections.grid.push", "bijections", "ToggleGrid.push", False, _grid_push),
    ("toggles.toggle_between", "toggles", "toggle_between", False, None),
    ("toggles.toggle_pop", "toggles", "toggle_pop", False, None),
    ("toggles.toggle_push", "toggles", "toggle_push", False, None),
    ("boundary.redistribute", "boundary", "redistribute", False, None),
    ("boundary.redistribute_inverse", "boundary", "redistribute_inverse", False, None),
    ("boundary.hook_pivots_outside", "boundary", "hook_pivots_outside", False, None),
]
WITH_ITEMS = {"partitions.interlacers_below": "yielded",
              "partitions.interlacers_above": "yielded",
              "oracle.census": "objects",
              **{name: "objects" for name, *_ in FUNCTIONS
                 if name.startswith("oracle.enum_")}}


def _package_namespaces():
    for name, mod in list(sys.modules.items()):
        if name == "pptoggle" or name.startswith("pptoggle."):
            yield vars(mod)


def _replace_everywhere(original, probe):
    """Point every pptoggle module attribute (and dict entry, such as the
    suite table in verify) that holds `original` at `probe`."""
    for ns in _package_namespaces():
        for key, value in list(ns.items()):
            if value is original:
                ns[key] = probe
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = probe


def install(rec: Recorder, suites) -> None:
    """Wrap every traced callable, plus verify's suites named in `suites`."""
    import importlib

    for name, module, attr, is_gen, observe in FUNCTIONS:
        mod = importlib.import_module(f"pptoggle.{module}")
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[method]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            probe = Probe(rec, name, fn, observe)
            setattr(cls, method, staticmethod(probe)
                    if isinstance(raw, staticmethod) else probe)
        else:
            original = getattr(mod, attr)
            probe = (GeneratorProbe if is_gen else Probe)(rec, name, original,
                                                         observe)
            _replace_everywhere(original, probe)
    verify = importlib.import_module("pptoggle.verify")
    for suite in suites:
        original = verify.SUITES[suite]
        _replace_everywhere(original, Probe(rec, f"verify.{suite}", original))


# ---------------------------------------------------------------------------
# per-layer figures

def summarize(rec: Recorder, suites) -> dict[str, float]:
    """Calls, self time and items per traced callable, plus derived ratios."""
    calls: Counter = Counter()
    self_s: dict[str, float] = {}
    items: Counter = Counter()
    names = [s[NAME] for s in rec.spans]
    for s in rec.spans:
        calls[s[NAME]] += 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + s[BUSY] - s[CHILD]
        items[s[NAME]] += s[ITEMS]

    def parent_is(s, name):
        return s[PARENT] >= 0 and names[s[PARENT]] == name

    out: dict[str, float] = {}
    for name, *_ in FUNCTIONS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        if name in WITH_ITEMS:
            out[f"{name}.{WITH_ITEMS[name]}"] = items[name]
    for suite in suites:
        out[f"verify.{suite}.self_s"] = self_s.get(f"verify.{suite}", 0.0)

    c = rec.counts
    requests = calls["series.evaluate_stable"] + sum(
        1 for s in rec.spans if s[NAME] == "series.evaluate"
        and not parent_is(s, "series.evaluate_stable"))
    successors = sum(s[ITEMS] for s in rec.spans
                     if s[NAME].startswith("partitions.interlacers_")
                     and parent_is(s, "series.apply_vertex_op"))
    enumerated = sum(s[ITEMS] for s in rec.spans
                     if s[NAME].startswith("oracle.enum_")
                     and parent_is(s, "oracle.census"))
    pops, pushes = calls["bijections.grid.pop"], calls["bijections.grid.push"]
    out.update({
        "series.states_in": c["series.states_in"],
        "series.states_out": c["series.states_out"],
        "series.peak_states": rec.peaks.get("series.peak_states", 0),
        "series.coeff_terms": c["series.coeff_terms"],
        "series.steps_per_request": _ratio(calls["series.apply_vertex_op"],
                                           requests),
        "series.successors_per_state_out": _ratio(successors,
                                                  c["series.states_out"]),
        "series.repeat_share": _ratio(c["series.repeat_requests"],
                                      calls["series.evaluate_stable"]),
        "oracle.kept_ratio": _ratio(items["oracle.census"], enumerated),
        "bijections.grid.nonzero_pop_ratio": _ratio(
            c["bijections.grid.nonzero_pops"], pops),
        "bijections.grid.nonzero_push_ratio": _ratio(
            c["bijections.grid.nonzero_pushes"], pushes),
        "bijections.grid.max_side": rec.peaks.get("bijections.grid.max_side", 0),
        "bijections.windows_per_two_leg": _ratio(
            calls["bijections.two_leg_remnant"],
            calls["bijections.two_leg_forward"]),
    })
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
