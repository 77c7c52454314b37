"""Per-layer tracing, installed from the benchmark's side of the boundary.

The tracer wraps the public functions and methods of each galaxyck layer,
in every module namespace that binds them (``galaxyck.emailgame.ck_subjective``
as well as ``galaxyck.epistemic.ck_subjective``), and the ``HyperNat``
operators on the class.  Each wrapped call is a frame on one stack; when it
returns, its self time (duration minus the time of wrapped calls inside it)
and its call count are added to per-name totals.

Calls are also kept as spans ``(id, name, start, end, parent id, check id)``
in memory and written out at the end, except the fine-grained ones (HyperNat
operators, level tests, cell lookups, JSON rendering helpers): those happen
up to millions of times per check, so they are folded into the per-name
totals only.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import time
import types
from collections import defaultdict

LAYERS = ("hypernat", "sorites", "epistemic", "emailgame", "reports", "cli")

# Special methods wrapped besides the public ones.  HyperNat.__init__ is
# only counted (hypernat.allocs), not timed.
DUNDERS = {
    "HyperNat": (
        "__eq__", "__hash__", "__lt__", "__le__", "__gt__", "__ge__", "__add__", "__radd__",
        "__sub__", "__mul__", "__rmul__", "__int__", "__str__",
    ),
    "AumannModel": ("__init__",),
}

# Hot helpers, called up to millions of times per check: only totalled.
# Every other wrapped call is also kept as a span.
FOLDED = {
    "sorites.SoritesRelation.in_level",
    "sorites.SoritesRelation.related",
    "sorites.GeneratingSequence.bound",
    "epistemic.AumannModel.agents",
    "epistemic.AumannModel.states",
    "epistemic.AumannModel.cell",
    "epistemic.AumannModel.neighbors",
    "emailgame.EmailGameState.t_prime",
    "emailgame.chain_position",
    "emailgame.state_b",
    "reports.jsonable",
    "reports.CaseResult.to_dict",
    "reports.CheckReport.add",
    "reports.CheckReport.passed",
}


def _kept_as_span(name: str) -> bool:
    return not name.startswith("hypernat.") and name not in FOLDED


def _count_bfs(tracer, result):
    tracer.counters["epistemic.bfs.states_visited"] += len(result)


def _count_prob_bits(tracer, result):
    bits = max(result.numerator.bit_length(), result.denominator.bit_length())
    tracer.counters["emailgame.prob_bits"] = max(tracer.counters["emailgame.prob_bits"], bits)


def _count_witnesses(tracer, report):
    composition = report.cases[2].actual
    if isinstance(composition, list):
        tracer.counters["sorites.witnesses"] += len(composition)


HOOKS = {
    "epistemic.AumannModel.distances_from": _count_bfs,
    "emailgame.state_probability": _count_prob_bits,
    "sorites.SoritesRelation.verify_generating_axioms": _count_witnesses,
}


class Tracer:
    """Wraps galaxyck's layers on ``install`` and restores them on
    ``uninstall``; wrapped calls are recorded only while ``active``."""

    def __init__(self):
        self.active = False
        self.check_id = "setup"
        self.spans: list = []
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, self s, inclusive s
        self.counters = defaultdict(int)
        self._stack: list = []
        self._ids = itertools.count()
        self._patches: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name):
        tracer, clock, hook, keep = self, time.perf_counter, HOOKS.get(name), _kept_as_span(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            # frame: child time, span id that children report as their parent
            frame = [0.0, next(tracer._ids) if keep else parent_span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                total = tracer.totals[name]
                total[0] += 1
                total[1] += duration - frame[0]
                total[2] += duration
                if keep:
                    tracer.spans.append((frame[1], name, start, end, parent_span, tracer.check_id))
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def _count_allocs(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counters["hypernat.allocs"] += 1
            return init(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_"):
                if attr in DUNDERS.get(cls.__name__, ()):
                    self._patch(cls, attr, self._wrap(raw, name))
                elif (cls.__name__, attr) == ("HyperNat", "__init__"):
                    self._patch(cls, attr, self._count_allocs(raw))
                continue
            if isinstance(raw, property):
                self._patch(cls, attr, property(self._wrap(raw.fget, name)))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def install(self) -> None:
        import galaxyck
        from galaxyck import cli, emailgame, epistemic, hypernat, reports, sorites

        modules = (hypernat, sorites, epistemic, emailgame, reports, cli)
        wrapped: dict = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer)
        for mod in modules + (galaxyck,):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        proxy = types.SimpleNamespace(**vars(json))
        proxy.load = self._wrap(json.load, "cli.json.load")
        proxy.dumps = self._wrap(json.dumps, "reports.json.dumps")
        self._patch(cli, "json", proxy)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> tuple:
        """Return the totals and counters gathered so far and start afresh."""
        totals, counters = dict(self.totals), dict(self.counters)
        self.totals.clear()
        self.counters.clear()
        return totals, counters

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["id", "name", "start", "end", "parent", "check"], "spans": self.spans},
                handle,
            )


# --- deriving per-layer metrics --------------------------------------------


def fit_exponent(medians: dict) -> float:
    """Least-squares slope of log(time) against log(size)."""
    points = [(math.log(size), math.log(ms)) for size, ms in medians.items() if ms > 0]
    if len(points) < 2:
        return 0.0
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def layer_metrics(totals: dict, counters: dict, setup_totals: dict, checks: int, check_s: float) -> dict:
    """Per-check layer counts and self times from the traced checks' totals.

    ``check_s`` is the traced checks' summed latency, the base of each share.
    """

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def layer_self(layer):
        return sum(t[1] for n, t in totals.items() if n.split(".", 1)[0] == layer)

    per = 1.0 / max(checks, 1)
    bfs = "epistemic.AumannModel.distances_from"
    ck = ("epistemic.ck_classical", "epistemic.ck_subjective")
    link = ("epistemic.link_agent", "epistemic.link_group", "epistemic.link_iter")
    render = [n for n in totals if n.split(".", 1)[0] == "reports"]
    out = {
        "hypernat.calls": sum(t[0] for n, t in totals.items() if n.startswith("hypernat.")) * per,
        "hypernat.allocs": counters.get("hypernat.allocs", 0) * per,
        "hypernat.self_s": layer_self("hypernat") * per,
        "sorites.in_level.calls": calls("sorites.SoritesRelation.in_level") * per,
        "sorites.related.calls": calls("sorites.SoritesRelation.related") * per,
        "sorites.audit.self_s": self_s("sorites.SoritesRelation.verify_generating_axioms") * per,
        "sorites.witnesses": counters.get("sorites.witnesses", 0) * per,
        "epistemic.bfs.calls": calls(bfs) * per,
        "epistemic.bfs.states_visited": counters.get("epistemic.bfs.states_visited", 0) * per,
        "epistemic.bfs.self_s": self_s(bfs) * per,
        "epistemic.ck.calls": calls(*ck) * per,
        "epistemic.verdicts_per_bfs": calls(*ck) / calls(bfs) if calls(bfs) else 0.0,
        "epistemic.build_s": self_s("epistemic.AumannModel.__init__", "epistemic.model_from_dict") * per,
        "epistemic.meet_s": self_s("epistemic.meet") * per,
        "epistemic.link_s": self_s(*link) * per,
        "emailgame.state_probability.calls": calls("emailgame.state_probability") * per,
        "emailgame.state_probability.self_s": self_s("emailgame.state_probability") * per,
        "emailgame.state_probability.share": self_s("emailgame.state_probability") / check_s,
        "emailgame.prob_bits": counters.get("emailgame.prob_bits", 0),
        "emailgame.cells_audited": calls("emailgame.cell_by_own_count") * per,
        "emailgame.audit.self_s": self_s("emailgame.best_response_check") * per,
        "emailgame.truncated_model_s": setup_totals.get("emailgame.truncated_model", (0, 0.0, 0.0))[2],
        "reports.render_s": self_s(*render) * per,
        "cli.load_s": self_s("cli.json.load") * per,
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self(layer) / check_s
    return out
