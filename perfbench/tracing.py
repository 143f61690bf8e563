"""Spans recorded from outside hominv, and the per-layer metrics made of them.

:func:`install` replaces functions of the hominv modules with wrappers that
record one span per call: name, start, end, parent span and operation id,
plus a few counts taken from the arguments or the result.  A function that
one module imports from another is replaced under every name that refers to
it, so calls between modules are seen too.  Spans stay in memory until
:meth:`Tracer.dump` writes them out at the end of the run.

A span's self time is its duration minus the durations of its direct
children; the calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span fields
NAME, START, END, PARENT, OP, EXTRA = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = "setup"

    def wrap(self, name, fn, extra=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments;
        ``extra(args, kwargs, result)`` returns a dict of counts or None.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT], "op": s[OP],
                                     "counts": s[EXTRA]}) + "\n")


def _rows(points) -> int:
    return int(getattr(points, "shape", (1,))[0])


def _split(kind):
    return lambda args: f"mapcore.{kind}.{'single' if _rows(args[1]) == 1 else 'batch'}"


def _term_counts(poly):
    """Terms of the values and of the nonzero first partials of a PolyMap,
    from its canonical term list."""
    values = sum(len(comp) for comp in poly.components)
    partials = sum(sum(1 for v in e if v) for comp in poly.components for _, e in comp)
    return values, partials


def install(tracer: Tracer, hominv) -> list[str]:
    """Wrap the traced functions of every hominv module; returns the names
    that were not found (a renamed function is reported, not fatal)."""
    import importlib

    mods = {name: importlib.import_module(f"hominv.{name}") for name in
            ("mapcore", "polyparser", "hypotheses", "_newton", "inverter", "degree",
             "catalog", "cli")}
    # keyed by id; the map is kept in the entry so that its id cannot be
    # reused by a later map while the entry exists
    terms_cache: dict[int, tuple] = {}

    def terms(poly, which):
        entry = terms_cache.get(id(poly))
        if entry is None:
            entry = terms_cache[id(poly)] = (poly, *_term_counts(poly))
        return entry[1 + which]

    def rows_extra(which):
        def extra(args, kwargs, result):
            b = _rows(args[1])
            return {"rows": b, "term_rows": b * terms(args[0], which)}
        return extra

    def newton_correct_extra(args, kwargs, result):
        _, _, iters, mode = result
        return {"iters": int(iters), "nonconverged": int(mode != "converged")}

    def newton_batch_extra(args, kwargs, result):
        return {"rows": _rows(args[1]), "converged": int(result[1].sum())}

    def invert_extra(args, kwargs, result):
        return {"steps": int(result.steps), "newton_iters": int(result.newton_iters_total)}

    def slerp_extra(args, kwargs, result):
        t = args[2] if len(args) > 2 else kwargs.get("t")
        return {"seeds_tried": int(float(t) == 0.0)}

    def roots_extra(args, kwargs, result):
        return {"roots": len(result)}

    missing = []
    poly = mods["mapcore"].PolyMap
    for attr, kind, which in (("evaluate", "evaluate", 0), ("jacobian", "jacobian", 1)):
        fn = getattr(poly, attr, None)
        if fn is None:
            missing.append(f"mapcore.PolyMap.{attr}")
            continue
        setattr(poly, attr, tracer.wrap(_split(kind), fn, rows_extra(which)))

    functions = [
        ("mapcore", "eval_map", "mapcore.eval_map", None),
        ("mapcore", "eval_jacobian_batch", "mapcore.eval_jacobian_batch", None),
        ("mapcore", "eval_jacobian", "mapcore.eval_jacobian", None),
        ("polyparser", "parse_map", "polyparser.parse_map", None),
        ("polyparser", "format_map", "polyparser.format_map", None),
        ("hypotheses", "check_hypotheses", "hypotheses.check_hypotheses", None),
        ("hypotheses", "sample_sphere", "hypotheses.sample_sphere", None),
        ("hypotheses", "_covering_radius", "hypotheses.covering_radius", None),
        ("hypotheses", "estimate_extrema", "hypotheses.estimate_extrema", None),
        ("hypotheses", "check_jacobian_nonvanishing",
         "hypotheses.check_jacobian_nonvanishing", None),
        ("hypotheses", "homogeneity_residual", "hypotheses.homogeneity_residual", None),
        ("hypotheses", "_refine_on_sphere", "hypotheses.refine", None),
        ("_newton", "newton_correct", "newton.newton_correct", newton_correct_extra),
        ("_newton", "solve_guarded", "newton.solve_guarded", None),
        ("_newton", "newton_batch", "newton.newton_batch", newton_batch_extra),
        ("inverter", "invert", "inverter.invert", invert_extra),
        ("inverter", "slerp_path", "inverter.slerp_path", slerp_extra),
        ("inverter", "_polish", "inverter.polish", None),
        ("degree", "count_preimages", "degree.count_preimages", None),
        ("degree", "_search_roots", "degree.search_roots", roots_extra),
        ("degree", "_sobol_directions", "degree.sobol", None),
        ("degree", "mapping_degree", "degree.mapping_degree", None),
        ("degree", "injectivity_probe", "degree.injectivity_probe", None),
        ("cli", "main", "cli.main", None),
    ]
    holders = [m for k, m in sys.modules.items()
               if m is not None and (k == "hominv" or k.startswith("hominv."))]
    for mod, attr, name, extra in functions:
        fn = getattr(mods[mod], attr, None)
        if fn is None:
            missing.append(f"{mod}.{attr}")
            continue
        wrapped = tracer.wrap(name, fn, extra)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, key, wrapped)
    return missing


def traced_blackbox(tracer: Tracer, m, hominv):
    """A copy of a black-box MapSpec whose callables record
    ``mapcore.blackbox`` spans."""
    body = m.body
    jac = body.jacobian
    return hominv.MapSpec(
        hominv.BlackBox(
            eval=tracer.wrap("mapcore.blackbox", body.eval),
            declared_kappa=body.declared_kappa,
            jacobian=None if jac is None else tracer.wrap("mapcore.blackbox", jac),
        ),
        n=m.n,
    )


def _sum(stats, span, key):
    return stats[span].get(key, 0)


#: (metric, unit, how it is computed from the aggregated spans)
LAYER_METRICS = []


def _calls(span):
    return lambda st: _sum(st, span, "calls")


def _self(span):
    return lambda st: float(_sum(st, span, "self_s"))


def _count(span, key):
    return lambda st: _sum(st, span, key)


for _kind in ("evaluate", "jacobian"):
    _p = f"mapcore.{_kind}"
    LAYER_METRICS += [
        (f"{_p}.single.calls", "count", _calls(f"{_p}.single")),
        (f"{_p}.single.self_s", "s", _self(f"{_p}.single")),
        (f"{_p}.batch.calls", "count", _calls(f"{_p}.batch")),
        (f"{_p}.batch.rows", "count", _count(f"{_p}.batch", "rows")),
        (f"{_p}.batch.self_s", "s", _self(f"{_p}.batch")),
        (f"{_p}.term_rows", "count",
         (lambda p: lambda st: _sum(st, f"{p}.single", "term_rows")
          + _sum(st, f"{p}.batch", "term_rows"))(_p)),
    ]
for _span in ("mapcore.eval_map", "mapcore.eval_jacobian_batch", "mapcore.eval_jacobian",
              "mapcore.blackbox"):
    LAYER_METRICS += [(f"{_span}.calls", "count", _calls(_span)),
                      (f"{_span}.self_s", "s", _self(_span))]
LAYER_METRICS += [
    ("hypotheses.check_hypotheses.calls", "count", _calls("hypotheses.check_hypotheses")),
]
for _span in ("hypotheses.check_hypotheses", "hypotheses.sample_sphere",
              "hypotheses.covering_radius", "hypotheses.estimate_extrema",
              "hypotheses.check_jacobian_nonvanishing", "hypotheses.homogeneity_residual",
              "hypotheses.refine"):
    LAYER_METRICS.append((f"{_span}.self_s", "s", _self(_span)))
LAYER_METRICS += [
    ("hypotheses.refine.calls", "count", _calls("hypotheses.refine")),
    ("hypotheses.refine.map_calls", "count", _count("hypotheses.refine", "map_calls")),
    ("newton.newton_correct.calls", "count", _calls("newton.newton_correct")),
    ("newton.newton_correct.iters", "count", _count("newton.newton_correct", "iters")),
    ("newton.newton_correct.nonconverged", "count",
     _count("newton.newton_correct", "nonconverged")),
    ("newton.newton_correct.self_s", "s", _self("newton.newton_correct")),
    ("newton.solve_guarded.calls", "count", _calls("newton.solve_guarded")),
    ("newton.solve_guarded.self_s", "s", _self("newton.solve_guarded")),
    ("newton.newton_batch.calls", "count", _calls("newton.newton_batch")),
    ("newton.newton_batch.rows", "count", _count("newton.newton_batch", "rows")),
    ("newton.newton_batch.converged", "count", _count("newton.newton_batch", "converged")),
    ("newton.newton_batch.self_s", "s", _self("newton.newton_batch")),
    ("inverter.invert.calls", "count", _calls("inverter.invert")),
    ("inverter.invert.self_s", "s", _self("inverter.invert")),
    ("inverter.seeds_tried", "count", _count("inverter.slerp_path", "seeds_tried")),
    ("inverter.steps", "count", _count("inverter.invert", "steps")),
    ("inverter.newton_iters", "count", _count("inverter.invert", "newton_iters")),
    ("inverter.slerp_path.calls", "count", _calls("inverter.slerp_path")),
    ("inverter.slerp_path.self_s", "s", _self("inverter.slerp_path")),
    ("inverter.polish.calls", "count", _calls("inverter.polish")),
    ("inverter.polish.self_s", "s", _self("inverter.polish")),
    ("degree.count_preimages.calls", "count", _calls("degree.count_preimages")),
    ("degree.count_preimages.self_s", "s", _self("degree.count_preimages")),
    ("degree.search_roots.self_s", "s", _self("degree.search_roots")),
    ("degree.sobol.self_s", "s", _self("degree.sobol")),
    ("degree.mapping_degree.self_s", "s", _self("degree.mapping_degree")),
    ("degree.injectivity_probe.self_s", "s", _self("degree.injectivity_probe")),
    ("degree.roots", "count", _count("degree.search_roots", "roots")),
    ("degree.converged_per_start", "ratio",
     lambda st: (_sum(st, "newton.newton_batch", "converged")
                 / max(1, _sum(st, "newton.newton_batch", "rows")))),
    ("polyparser.parse_map.calls", "count", _calls("polyparser.parse_map")),
    ("polyparser.parse_map.self_s", "s", _self("polyparser.parse_map")),
    ("polyparser.format_map.calls", "count", _calls("polyparser.format_map")),
    ("polyparser.format_map.self_s", "s", _self("polyparser.format_map")),
    ("cli.main.calls", "count", _calls("cli.main")),
    ("cli.main.self_s", "s", _self("cli.main")),
]

_MAP_CALLS = ("mapcore.eval_map", "mapcore.eval_jacobian")


def aggregate(spans) -> dict:
    """Per span name: calls, self time and the summed counts."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    stats: dict = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        st = stats[s[NAME]]
        st["calls"] += 1
        st["self_s"] += (s[END] - s[START]) - child_time[i]
        if s[EXTRA]:
            for k, v in s[EXTRA].items():
                st[k] += v
        # single-point map and Jacobian calls made by the sphere refinements
        if s[NAME] in _MAP_CALLS and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "hypotheses.refine":
            stats["hypotheses.refine"]["map_calls"] += 1
    return stats


def layer_metrics(spans) -> dict:
    stats = aggregate(spans)
    out = {}
    for name, unit, fn in LAYER_METRICS:
        value = fn(stats)
        out[name] = {"value": value if unit in ("s", "ratio") else int(value), "unit": unit}
    return out
