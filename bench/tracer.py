"""In-memory span tracer for the benchmark's traced run.

The tracer wraps spcop's public functions and methods at the names their
callers look up (``spcop.cli.best_eta_report``, ``spcop.precedence.sample_uv``,
``Gaussian.cdf``, ...), so the spans come from this file alone and nothing in
``src/`` changes. Each span records its name, start, end, parent span and
request id, plus a work count (points evaluated, samples drawn or integrand
evaluations). Spans live in flat typed arrays and are written out once, at
the end; self time is computed from them afterwards.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


def _size(x):
    return float(np.size(x))


def _pair_points(args, kwargs):
    # (self, u, v) -> number of (u, v) points after broadcasting
    return float(np.broadcast(args[1], args[2]).size)


def _first_points(args, kwargs):
    return _size(args[0])


def _second_points(args, kwargs):
    return _size(args[1])


def _n_points(args, kwargs):
    # sample_uv(spec, n, ...) and eta_mc(spec, g1, g2, n, ...)
    return float(kwargs["n"] if "n" in kwargs else args[1])


def _eta_mc_points(args, kwargs):
    return float(kwargs["n"] if "n" in kwargs else args[3])


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("d")
        self.tags: dict[int, str] = {}
        self.current_request = -1
        self._stack = [-1]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name, group):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return self._ids[name]

    def wrap(self, name, group, fn, points=None, tag=None, count_calls_of=None):
        """Return fn wrapped in a span.

        points(args, kwargs) gives the span's work count; tag(result) labels
        it; count_calls_of=i counts calls of the callable passed as argument
        i and uses that count as the work (integrand evaluations)."""
        nid = self._name_id(name, group)
        stack = self._stack
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, pts = self.start, self.end, self.points
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(tracer.current_request)
            pts.append(points(args, kwargs) if points is not None else 0.0)
            starts.append(0.0)
            ends.append(0.0)
            calls = None
            if count_calls_of is not None:
                inner_fn = args[count_calls_of]
                calls = [0]

                def counted(*a):
                    calls[0] += 1
                    return inner_fn(*a)

                args = args[:count_calls_of] + (counted,) + args[count_calls_of + 1:]
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if calls is not None:
                    pts[idx] = float(calls[0])
            if tag is not None:
                tracer.tags[idx] = tag(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, group, **kw):
        raw = vars(owner)[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, group, raw.__func__, **kw))
        else:
            new = self.wrap(name, group, raw, **kw)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, raw))

    def restore(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the spcop layers; restore() undoes every patch."""
        import spcop.cli as cli
        import spcop.copula as copula
        import spcop.dist as dist
        import spcop.oracle as oracle
        import spcop.precedence as precedence
        import spcop.tba as tba

        route = (lambda report: report.method)
        p = self.patch
        p(cli, "main", "cli.main", "cli")
        for mod, where in ((cli, "cli"), (tba, "tba")):
            p(mod, "copula_from_json", f"codec.copula_from_json@{where}", "codec")
            p(mod, "dist_from_json", f"codec.dist_from_json@{where}", "codec")
            p(mod, "best_eta_report", f"precedence.best_eta_report@{where}", "precedence.best",
              tag=route)
            p(mod, "check_order", f"dist.check_order@{where}", "dist.order")
        p(tba.Prospect, "from_json", "codec.Prospect.from_json", "codec")
        p(cli, "copula_sample", "copula.copula_sample@cli", "copula.rows")
        p(cli, "sp_level", "precedence.sp_level@cli", "precedence.sp_level")
        p(cli, "classify", "precedence.classify@cli", "precedence.classify")
        p(cli, "rank_prospects", "tba.rank_prospects@cli", "tba")
        p(cli, "run_verification", "oracle.run_verification@cli", "oracle.verify")

        p(precedence, "best_eta_report", "precedence.best_eta_report@precedence",
          "precedence.best", tag=route)
        p(precedence, "check_order", "dist.check_order@precedence", "dist.order")
        p(precedence, "eta_exact", "precedence.eta_exact", "precedence.closed_form")
        p(precedence, "eta_discrete_exact", "precedence.eta_discrete_exact",
          "precedence.discrete_exact")
        p(precedence, "eta_quadrature", "precedence.eta_quadrature", "precedence.quadrature")
        p(precedence, "eta_mc", "precedence.eta_mc", "precedence.mc", points=_eta_mc_points)
        p(precedence, "integrate_adaptive", "integrate.integrate_adaptive@precedence",
          "integrate", count_calls_of=0)

        for mod, where in ((precedence, "precedence"), (copula, "copula"), (oracle, "oracle")):
            p(mod, "sample_uv", f"copula.sample_uv@{where}", "copula.sample", points=_n_points)
        for mod, where, fns in ((copula, "copula", ("normal_cdf", "normal_quantile")),
                                (dist, "dist", ("normal_cdf", "normal_quantile", "normal_pdf"))):
            for fn in fns:
                p(mod, fn, f"special.{fn}@{where}", "special", points=_first_points)

        for cls in _subclasses(copula.CopulaSpec):
            if "cdf" in vars(cls):
                p(cls, "cdf", f"copula.cdf:{cls.__name__}", "copula.cdf", points=_pair_points)
            for meth in ("conditional_cdf", "conditional_cdf_second"):
                if meth in vars(cls):
                    p(cls, meth, f"copula.{meth}:{cls.__name__}", "copula.cond_cdf",
                      points=_pair_points)
        for cls in _subclasses(dist.Distribution):
            if "quantile" in vars(cls):
                p(cls, "quantile", f"dist.quantile:{cls.__name__}", "dist.quantile",
                  points=_second_points)
            if "cdf" in vars(cls):
                p(cls, "cdf", f"dist.cdf:{cls.__name__}", "dist.cdf", points=_second_points)

        for fn in ("mo_checks", "mo_survival_eta_audit", "load_sharing_checks",
                   "order_stats_checks", "grid_eta_oracle"):
            p(oracle, fn, f"oracle.check.{fn}", f"oracle.check.{fn}")

    # -- export ------------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names),
            "groups": np.array(self.groups),
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "points": np.frombuffer(self.points, dtype=np.float64).copy(),
        }

    def save(self, path):
        data = self.arrays()
        tag_idx = np.array(sorted(self.tags), dtype=np.int64)
        data["tag_span"] = tag_idx
        data["tag_value"] = np.array([self.tags[i] for i in tag_idx], dtype="U16")
        np.savez_compressed(path, **data)


def _subclasses(base):
    out = []
    todo = [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class SpanTable:
    """Spans as numpy columns, with per-group totals and self times."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.tags = tracer.tags
        self.group_names = sorted(set(tracer.groups))
        gid = {g: i for i, g in enumerate(self.group_names)}
        name_group = np.array([gid[g] for g in tracer.groups], dtype=np.int64)
        self.group = name_group[a["name"]] if len(a["name"]) else np.zeros(0, dtype=np.int64)
        self.parent = a["parent"].astype(np.int64)
        self.request = a["request"]
        self.points = a["points"]
        self.dur = a["end"] - a["start"]
        n = len(self.dur)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child[:n]
        parent_group = np.where(has_parent, self.group[np.maximum(self.parent, 0)], -1)
        self.outermost = parent_group != self.group
        self._gid = gid

    def __len__(self):
        return len(self.dur)

    def mask(self, group, outermost=True):
        if group not in self._gid:
            return np.zeros(len(self.dur), dtype=bool)
        m = self.group == self._gid[group]
        return m & self.outermost if outermost else m

    def calls(self, group):
        return int(self.mask(group).sum())

    def seconds(self, group):
        return float(self.dur[self.mask(group)].sum())

    def self_seconds(self, group):
        return float(self.self_time[self.mask(group, outermost=False)].sum())

    def work(self, group):
        return float(self.points[self.mask(group)].sum())

    def indices(self, group, outermost=True):
        return np.nonzero(self.mask(group, outermost))[0]
