"""Outside-in layer trace: spans and call counts around the package's functions.

``Tracer.install()`` wraps each traced public function and rebinds every
module-level alias of it in the package, plus entries of module-level dicts
(``cli._SWEEPS`` holds the sweep runners). ``game``, ``prospect``,
``experiments`` and ``cli`` import by name, so patching only the defining
module would miss most calls. Nothing under ``src/`` changes.

Spanned functions record (name, start, end, parent) into flat arrays kept in
memory; ``write()`` saves them when the run ends. The hot leaves in
``COUNTED`` only increase a counter: a prototype that timed every guarantee
evaluation tripled the cost of a traced 80-user solve (9.3 s to 28.7 s). A function that a later version removes
or renames is reported as absent, and the metrics built on it read 0.
"""

from __future__ import annotations

import array
import importlib
import inspect
import time

import numpy as np

PACKAGE = "prospect_pricing"
MODULES = ("channel", "weighting", "_search", "game", "prospect", "experiments",
           "cli")

# functions that get a span, as (module, function)
SPANNED = (
    ("channel", "min_bandwidth"),
    ("game", "solve_nash"),
    ("game", "min_bandwidth_for_user"),
    ("prospect", "equalized_willingness"),
    ("prospect", "ne_preserved"),
    ("prospect", "admission_control"),
    ("prospect", "bandwidth_expansion"),
    ("prospect", "rate_control"),
    ("experiments", "build_scenario"),
    ("experiments", "sweep_comparison"),
    ("cli", "dispatch"),
)
# searches get a span and a count of evaluations of their callable argument;
# the value gives the evaluations a call makes when it stops at max_iter
# (golden_max: 2 to open the bracket, 1 per step, 2 at the bracket ends)
SEARCHES = {
    ("_search", "golden_max"): lambda max_iter: max_iter + 4,
    ("_search", "bisect_boundary"): lambda max_iter: max_iter,
}
# hot leaves: counted, never timed; service_guarantee must stay first
COUNTED = (
    ("channel", "service_guarantee"),
    ("channel", "guarantee_supremum"),
    ("weighting", "weight"),
    ("weighting", "inverse_weight"),
)


def layer_name(module: str, function: str) -> str:
    """Metric prefix; metric names may not start with '_', so _search is 'search'."""
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # span name by id
        self.absent: list[str] = []
        self.counts = [0] * len(COUNTED)
        self.evals = {layer_name(*key): 0 for key in SEARCHES}
        self.cap_hits = 0
        # one entry per span, in the order spans open, so parent < child
        self._name = array.array("B")
        self._parent = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._sg = array.array("q")  # service_guarantee calls inside the span
        self._stack = [-1]
        self._restore: list[tuple[dict, object, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        namespaces = [vars(importlib.import_module(PACKAGE))]
        homes = {}
        for module in MODULES:
            try:
                homes[module] = importlib.import_module(f"{PACKAGE}.{module}")
            except ImportError:
                continue
            namespaces.append(vars(homes[module]))
        for module, function in SPANNED + tuple(SEARCHES) + COUNTED:
            fn = getattr(homes.get(module), function, None)
            if not callable(fn):
                self.absent.append(layer_name(module, function))
                continue
            if (module, function) in COUNTED:
                wrapper = self._counted(COUNTED.index((module, function)), fn)
            else:
                nid = len(self.names)
                self.names.append(layer_name(module, function))
                wrapper = self._spanned(nid, fn)
                cap = SEARCHES.get((module, function))
                if cap is not None:
                    wrapper = self._search(self.names[nid], cap, fn, wrapper)
            for ns in namespaces:
                self._rebind(ns, fn, wrapper)

    def _rebind(self, ns: dict, fn, wrapper) -> None:
        for key, value in list(ns.items()):
            if value is fn:
                self._swap(ns, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is fn:
                        self._swap(value, k, wrapper)
                    elif isinstance(v, tuple) and any(x is fn for x in v):
                        self._swap(value, k, tuple(wrapper if x is fn else x for x in v))

    def _swap(self, container: dict, key, new) -> None:
        self._restore.append((container, key, container[key]))
        container[key] = new

    def uninstall(self) -> None:
        for container, key, old in reversed(self._restore):
            container[key] = old
        self._restore.clear()

    def _counted(self, j: int, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[j] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanned(self, nid: int, fn):
        name, parent, start, end, sg = (self._name, self._parent, self._start,
                                        self._end, self._sg)
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def spanned(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            sg.append(counts[0])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                sg[idx] = counts[0] - sg[idx]
        return spanned

    def _search(self, key: str, cap, fn, spanned):
        """Count evaluations of the search's callable (its first parameter)."""
        sig = inspect.signature(fn)

        def search(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            params = bound.arguments
            first = next(iter(params))
            inner, n = params[first], [0]

            def evaluate(*a):
                n[0] += 1
                return inner(*a)
            params[first] = evaluate
            try:
                return spanned(*bound.args, **bound.kwargs)
            finally:
                self.evals[key] += n[0]
                max_iter = params.get("max_iter")
                if max_iter is not None and n[0] >= cap(max_iter):
                    self.cap_hits += 1
        return search

    # -- results ----------------------------------------------------------

    def _arrays(self):
        name = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        start = np.asarray(self._start, dtype=np.float64)
        end = np.asarray(self._end, dtype=np.float64)
        return name, parent, start, end

    def metrics(self) -> dict[str, float | int]:
        """Every per-layer metric of the traced region; see PER_LAYER."""
        name, parent, start, end = self._arrays()
        sg = np.asarray(self._sg, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child

        def nid(span: str) -> int:
            return self.names.index(span) if span in self.names else -1

        def under(span: str) -> np.ndarray:
            """Spans with an ancestor of the given name."""
            target, mask, anc = nid(span), np.zeros(len(name), bool), parent.copy()
            while True:
                live = anc >= 0
                if not live.any():
                    return mask
                mask[live] |= name[anc[live]] == target
                anc[live] = parent[anc[live]]

        def calls(span: str) -> int:
            return int(np.count_nonzero(name == nid(span)))

        def inclusive(span: str) -> float:
            sel = (name == nid(span)) & ~under(span)
            return float(dur[sel].sum())

        def self_s(span: str) -> float:
            return float(self_time[name == nid(span)].sum())

        def nested(inner: str, outer: str) -> int:
            return int(np.count_nonzero((name == nid(inner)) & under(outer)))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        inversions = calls("channel.min_bandwidth")
        count = dict(zip((layer_name(*key) for key in COUNTED), self.counts))
        return {
            "channel.min_bandwidth.calls": inversions,
            "channel.min_bandwidth.self_s": self_s("channel.min_bandwidth"),
            "channel.service_guarantee.calls": count["channel.service_guarantee"],
            "channel.guarantee_supremum.calls": count["channel.guarantee_supremum"],
            "channel.evals_per_inversion": ratio(
                int(sg[name == nid("channel.min_bandwidth")].sum()), inversions),
            "weighting.inverse_weight.calls": count["weighting.inverse_weight"],
            "weighting.weight.calls": count["weighting.weight"],
            "search.golden_max.calls": calls("search.golden_max"),
            "search.golden_max.evals": self.evals["search.golden_max"],
            "search.bisect_boundary.calls": calls("search.bisect_boundary"),
            "search.bisect_boundary.evals": self.evals["search.bisect_boundary"],
            "search.cap_hits": self.cap_hits,
            "game.solve_nash.calls": calls("game.solve_nash"),
            "game.solve_nash.s": inclusive("game.solve_nash"),
            "game.solve_nash.self_s": self_s("game.solve_nash"),
            "game.min_bandwidth_for_user.calls": calls("game.min_bandwidth_for_user"),
            "game.inversions_per_solve": ratio(
                nested("game.min_bandwidth_for_user", "game.solve_nash"),
                calls("game.solve_nash")),
            "prospect.equalized_willingness.calls": calls("prospect.equalized_willingness"),
            "prospect.equalized_willingness.self_s": self_s("prospect.equalized_willingness"),
            "prospect.inversions_per_equalize": ratio(
                nested("channel.min_bandwidth", "prospect.equalized_willingness"),
                calls("prospect.equalized_willingness")),
            "prospect.ne_preserved.s": inclusive("prospect.ne_preserved"),
            "prospect.admission_control.s": inclusive("prospect.admission_control"),
            "prospect.bandwidth_expansion.s": inclusive("prospect.bandwidth_expansion"),
            "prospect.rate_control.s": inclusive("prospect.rate_control"),
            "experiments.build_scenario.s": inclusive("experiments.build_scenario"),
            "experiments.sweep_comparison.self_s": self_s("experiments.sweep_comparison"),
            "cli.dispatch.s": inclusive("cli.dispatch"),
            "cli.overhead_s": self_s("cli.dispatch"),
        }

    def absent_metrics(self) -> list[str]:
        """Metrics whose function is missing; they read 0."""
        return sorted(m for m in PER_LAYER
                      if any(m.startswith(f + ".") or f in DEPENDS.get(m, ())
                             for f in self.absent))

    def write(self, path: str) -> None:
        """Save every span: name table, and per span name id, parent, start, end."""
        name, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)


# ratio metrics and the functions they are built on, beyond their own prefix
DEPENDS = {
    "channel.evals_per_inversion": ("channel.min_bandwidth", "channel.service_guarantee"),
    "game.inversions_per_solve": ("game.min_bandwidth_for_user", "game.solve_nash"),
    "prospect.inversions_per_equalize": ("channel.min_bandwidth",
                                         "prospect.equalized_willingness"),
    "search.cap_hits": ("search.golden_max", "search.bisect_boundary"),
    "cli.overhead_s": ("cli.dispatch",),
}

# per-layer metric -> unit, in report order; BENCHMARK.json lists the same
PER_LAYER = {
    "channel.min_bandwidth.calls": "count",
    "channel.min_bandwidth.self_s": "s",
    "channel.service_guarantee.calls": "count",
    "channel.guarantee_supremum.calls": "count",
    "channel.evals_per_inversion": "evals/inversion",
    "weighting.inverse_weight.calls": "count",
    "weighting.weight.calls": "count",
    "search.golden_max.calls": "count",
    "search.golden_max.evals": "count",
    "search.bisect_boundary.calls": "count",
    "search.bisect_boundary.evals": "count",
    "search.cap_hits": "count",
    "game.solve_nash.calls": "count",
    "game.solve_nash.s": "s",
    "game.solve_nash.self_s": "s",
    "game.min_bandwidth_for_user.calls": "count",
    "game.inversions_per_solve": "inversions/solve",
    "prospect.equalized_willingness.calls": "count",
    "prospect.equalized_willingness.self_s": "s",
    "prospect.inversions_per_equalize": "inversions/call",
    "prospect.ne_preserved.s": "s",
    "prospect.admission_control.s": "s",
    "prospect.bandwidth_expansion.s": "s",
    "prospect.rate_control.s": "s",
    "experiments.build_scenario.s": "s",
    "experiments.sweep_comparison.self_s": "s",
    "cli.dispatch.s": "s",
    "cli.overhead_s": "s",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_frac": "fraction",
}
