"""In-memory span recorder used by the traced benchmark run.

Spans are recorded from the benchmark's side only: `Tracer.install` replaces
public functions in the namespaces that call them (for example
`csgames.best_response.linprog`) with wrappers that time each call, times
HiGHS's own solve through a subclass of its solver class, and
`Tracer.restore` puts the originals back.  Nothing under `src/` changes.

A span is (name, start, end, parent index, attributes).  Intervals nest
because the benchmark is one single-threaded client, so a span's self time is
its duration minus the durations of its direct children.
"""

import functools
import importlib
import json
import time
import types

# (module, attribute, span name, attributes taken from the return value).
# Each function is wrapped where its caller looks it up, so a call made from
# inside the wrapped module itself (evaluate_profile -> evaluate_correlated,
# induced_mdp -> induced_mdp_from_marginal) is not counted twice.
TARGETS = (
    ("csgames.cli", "load_game", "cli.load", None),
    ("csgames.cli", "load_spec", "cli.load", None),
    ("csgames.cli", "load_strategy", "cli.load", None),
    ("csgames.cli", "_write", "cli.write", None),
    ("csgames.cli", "_digest", "cli.digest", None),
    ("csgames.cli", "validate_game", "game.validate", None),
    ("csgames.cli", "validate_spec", "game.validate", None),
    ("csgames.cli", "constrained_best_response", "best_response.lp",
     lambda r: {"infeasible": not r.feasible}),
    ("csgames.cli", "induced_mdp", "evaluation.induced_mdp", None),
    ("csgames.cli", "evaluate_profile", "evaluation.exact", None),
    ("csgames.cli", "evaluate_correlated", "evaluation.exact", None),
    ("csgames.cli", "evaluate_markov", "evaluation.exact", None),
    ("csgames.cli", "search_equilibrium", "equilibrium.search",
     lambda r: {"iterations": r.iterations, "converged": r.converged}),
    ("csgames.cli", "verify_approx_equilibrium", "equilibrium.verify", None),
    ("csgames.cli", "verify_statewise_equilibrium", "equilibrium.verify", None),
    ("csgames.cli", "verify_weak_correlated", "equilibrium.verify", None),
    ("csgames.cli", "correlated_limit_sequence", "equilibrium.sequence", None),
    ("csgames.cli", "simulate", "evaluation.simulate",
     lambda r: {"steps": r.n_trajectories * r.horizon}),
    ("csgames.cli", "build_partition", "discretization.build_partition",
     lambda r: {"cells": r.n_cells}),
    ("csgames.cli", "surrogate_game", "discretization.surrogate_game", None),
    ("csgames.equilibrium", "constrained_best_response", "best_response.lp",
     lambda r: {"infeasible": not r.feasible}),
    ("csgames.equilibrium", "optimal_policy_values", "best_response.policy_iteration", None),
    ("csgames.equilibrium", "induced_mdp", "evaluation.induced_mdp", None),
    ("csgames.equilibrium", "induced_mdp_from_marginal", "evaluation.induced_mdp", None),
    ("csgames.equilibrium", "evaluate_profile", "evaluation.exact", None),
    ("csgames.equilibrium", "evaluate_correlated", "evaluation.exact", None),
    ("csgames.equilibrium", "search_equilibrium", "equilibrium.search",
     lambda r: {"iterations": r.iterations, "converged": r.converged}),
    ("csgames.equilibrium", "verify_approx_equilibrium", "equilibrium.verify", None),
    ("csgames.equilibrium", "verify_weak_correlated", "equilibrium.verify", None),
    ("csgames.best_response", "linprog", "scipy.linprog", None),
    ("scipy.optimize._linprog_highs", "_highs_wrapper", "scipy.highs", None),
    ("csgames.discretization", "check_partition", "discretization.check_partition", None),
)


class Tracer:
    """Records spans in memory while installed; `restore` undoes `install`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index, attrs=None):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = attrs
        self._stack.pop()

    def wrap(self, fn, name, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(index)
                raise
            tracer.end(index, attrs_of(result) if attrs_of else None)
            return result

        return traced

    def install(self, targets=TARGETS):
        for module_name, attr, name, attrs_of in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, attrs_of))
        # The solve itself is a C++ method of the solver object that
        # _highs_wrapper creates from its module alias `_h`; a subclass that
        # times run() separates it from the wrapper's option and model set-up.
        wrapper = importlib.import_module("scipy.optimize._highspy._highs_wrapper")
        core = wrapper._h
        tracer = self

        class TracedHighs(core._Highs):
            def run(self):
                index = tracer.begin("scipy.highs.run")
                try:
                    return super().run()
                finally:
                    tracer.end(index)

        self._saved.append((wrapper, "_h", core))
        # A plain namespace copy keeps the wrapper's many `_h.X` lookups as
        # cheap as module attribute lookups.
        wrapper._h = types.SimpleNamespace(**{**vars(core), "_Highs": TracedHighs})

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Write one JSON array per span: [name, start, end, parent, attrs]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans):
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only), self seconds, and the list of attribute dicts.  Also returns, for
    each span, the tuple of its ancestors' names."""
    children_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children_time[parent] += end - start
    ancestors = []
    stats = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        above = ancestors[parent] + (spans[parent][0],) if parent >= 0 else ()
        ancestors.append(above)
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []})
        entry["calls"] += 1
        if name not in above:
            entry["s"] += end - start
        entry["self_s"] += end - start - children_time[i]
        if attrs:
            entry["attrs"].append(attrs)
    return stats, ancestors
