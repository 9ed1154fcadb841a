"""In-memory span tracer that wraps airframe's public functions from outside.

Nothing in `src/` is edited: `install()` replaces each traced function in
every airframe namespace that holds a reference to it (`evaluate_word`, for
example, is bound in `diagram`, `cli` and `trees`), and class attributes
for methods.  Three kinds of wrapper exist:

* span: records (name, start, end, parent span, op id, self time).  A
  call whose nearest open frame has the same name is folded into that
  span, so the recursion of `flatten` or `solve_pair -> solve_to_center`
  counts once.
* aggregated: functions called ~10^5 times per run.  Only a call count and
  summed self time are kept.
* count: a call count only (`color_of`, `PLMap.invert`).

Self time is kept as the calls return: every span and aggregated call adds
its whole duration to the child time of the frame that encloses it, and its
own self time is its duration minus its child time.  Each interval of a
run is so counted exactly once, also where an aggregated function calls a
span function (`act` can build the generator tables).

Spans live in flat arrays while the run lasts and are written out at the
end (`dump`).
"""

import gzip
import json
import time
from array import array
from collections import Counter, defaultdict

SPAN, AGG, COUNT = "span", "agg", "count"

# (metric prefix, kind, targets).  A target is "module:function" or
# "module:Class.method".
TRACED = [
    ("words.parse", SPAN, ["words:parse_word", "words:flatten"]),
    ("core.common_refinement", SPAN, ["core:common_refinement"]),
    ("core.expansion_new", AGG, ["core:Expansion.__init__"]),
    ("core.color_of", COUNT, ["core:ReplacementSystem.color_of"]),
    ("diagram.evaluate_word", SPAN, ["diagram:evaluate_word"]),
    ("diagram.compose", SPAN, ["diagram:GraphPairDiagram.compose"]),
    ("diagram.expand_pair", SPAN, ["diagram:GraphPairDiagram.expand_pair"]),
    ("diagram.reduce", SPAN, ["diagram:GraphPairDiagram.reduce"]),
    ("diagram.power", SPAN, ["diagram:GraphPairDiagram.power"]),
    ("diagram.validate", SPAN, ["diagram:GraphPairDiagram.validate"]),
    ("diagram.reversal_matching", COUNT, ["diagram:reversal_matching"]),
    ("systems.generators", SPAN, [
        "systems:airplane_generators", "systems:basilica_generators",
        "systems:interval_generators", "systems:circle_generators"]),
    ("systems.plmap_new", AGG, ["systems:PLMap.__init__"]),
    ("systems.plmap_call", AGG, ["systems:PLMap.__call__"]),
    ("systems.plmap_invert", COUNT, ["systems:PLMap.invert"]),
    ("analysis.global_derivative", SPAN, ["analysis:global_derivative"]),
    ("analysis.semidirect_split", SPAN, ["analysis:semidirect_split"]),
    ("circularize.phi_diagram", SPAN, ["circularize:phi_diagram"]),
    ("components.solve", SPAN, [
        "components:solve_to_center",
        "components:solve_to_center_fixing_center",
        "components:solve_pair"]),
    ("components.act", AGG, ["components:act"]),
    ("components.map_component", SPAN, ["components:map_component"]),
    ("components.orbit_search", SPAN, ["components:orbit_search"]),
    ("components.check_k_transitivity", SPAN,
     ["components:check_k_transitivity"]),
    ("trees.intertwine_check", SPAN, ["trees:intertwine_check"]),
    ("trees.tree_action", SPAN, ["trees:airplane_tree_action",
                                 "trees:basilica_tree_action"]),
    ("cli.main", SPAN, ["cli:main"]),
]


# --- hooks: counters measured where the work happens ------------------------

def _after_flatten(tr, args, result):
    tr.counts["words.letters"] += len(result)


def _after_compose(tr, args, result):
    tr.counts["diagram.leaves_out_sum"] += len(result.mapping)


def _after_reduce(tr, args, result):
    removed = len(args[0].mapping) - len(result.mapping)
    tr.counts["diagram.reduce.leaves_removed"] += removed
    tr.counts["diagram.reduce.hits"] += removed > 0


def _after_solve(tr, args, result):
    if result is None:
        tr.counts["components.solve.unsolved"] += 1
    else:
        tr.counts["components.solve.word_len_sum"] += len(result)
        tr.counts["components.solve.solved"] += 1


def _after_main(tr, args, result):
    tr.counts["cli.rejected"] += result == 1


HOOKS = {
    "words:flatten": _after_flatten,
    "diagram:GraphPairDiagram.compose": _after_compose,
    "diagram:GraphPairDiagram.reduce": _after_reduce,
    "components:solve_to_center": _after_solve,
    "components:solve_to_center_fixing_center": _after_solve,
    "components:solve_pair": _after_solve,
    "cli:main": _after_main,
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.op = -1
        self.names = []
        self._name_ids = {}
        self.s_name = array("H")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("l")
        self.s_op = array("l")
        self.s_self = array("d")
        # open frames: [child time, span id or -1, name]
        self.stack = [[0.0, -1, None]]
        self.counts = Counter()     # counters set by the hooks
        self.calls = Counter()      # calls of count-only functions
        self.agg_calls = Counter()
        self.agg_self = defaultdict(float)

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, hook=None):
        nid = self.name_id(name)
        tr = self

        def wrapper(*args, **kw):
            stack = tr.stack
            if not tr.enabled or stack[-1][2] == name:
                return fn(*args, **kw)
            sid = len(tr.s_name)
            parent = next(f[1] for f in reversed(stack) if f[1] >= 0 or
                          f[2] is None)
            frame = [0.0, sid, name]
            stack.append(frame)
            tr.s_name.append(nid)
            tr.s_parent.append(parent)
            tr.s_op.append(tr.op)
            tr.s_end.append(0.0)
            tr.s_self.append(0.0)
            t0 = tr.clock()
            tr.s_start.append(t0)
            try:
                result = fn(*args, **kw)
            finally:
                t1 = tr.clock()
                stack.pop()
                stack[-1][0] += t1 - t0
                tr.s_end[sid] = t1
                tr.s_self[sid] = t1 - t0 - frame[0]
            if hook is not None:
                hook(tr, args, result)
            return result
        return wrapper

    def aggregated(self, name, fn):
        tr = self

        def wrapper(*args, **kw):
            if not tr.enabled:
                return fn(*args, **kw)
            frame = [0.0, -1, name]
            stack = tr.stack
            stack.append(frame)
            t0 = tr.clock()
            try:
                return fn(*args, **kw)
            finally:
                dur = tr.clock() - t0
                stack.pop()
                stack[-1][0] += dur
                tr.agg_calls[name] += 1
                tr.agg_self[name] += dur - frame[0]
        return wrapper

    def counted(self, name, fn):
        counts = self.calls
        tr = self

        def wrapper(*args, **kw):
            if tr.enabled:
                counts[name] += 1
            return fn(*args, **kw)
        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, modules):
        """Wrap every TRACED target.  modules: {short name: module}."""
        for prefix, kind, targets in TRACED:
            for target in targets:
                modname, attr = target.split(":")
                mod = modules[modname]
                owner, _, meth = attr.rpartition(".")
                holder = getattr(mod, owner) if owner else mod
                orig = holder.__dict__[meth]
                if kind == SPAN:
                    wrapped = self.span(prefix, orig, HOOKS.get(target))
                elif kind == AGG:
                    wrapped = self.aggregated(prefix, orig)
                else:
                    wrapped = self.counted(prefix, orig)
                if owner:
                    setattr(holder, meth, wrapped)
                    continue
                # a module function may be bound in several namespaces
                for m in modules.values():
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, key, wrapped)

    # -- results ---------------------------------------------------------------

    def spans(self):
        """[(name, start, end, parent, op, self time)]."""
        return [(self.names[n], s, e, p, o, st) for n, s, e, p, o, st in
                zip(self.s_name, self.s_start, self.s_end, self.s_parent,
                    self.s_op, self.s_self)]

    def metrics(self):
        """Per-layer totals: {prefix.calls, prefix.self_s} and counters."""
        out = {}
        for prefix, kind, _ in TRACED:
            if kind == COUNT:
                out[prefix + ".calls"] = self.calls[prefix]
            elif kind == AGG:
                out[prefix + ".calls"] = self.agg_calls[prefix]
                out[prefix + ".self_s"] = self.agg_self[prefix]
            else:
                out[prefix + ".calls"] = 0
                out[prefix + ".self_s"] = 0.0
        for nid, st in zip(self.s_name, self.s_self):
            name = self.names[nid]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += st
        out.update(self.counts)
        return out

    def dump(self, path, extra):
        doc = {"names": self.names,
               "columns": ["name", "start", "end", "parent", "op", "self_s"],
               "spans": [list(self.s_name), list(self.s_start),
                         list(self.s_end), list(self.s_parent),
                         list(self.s_op), list(self.s_self)]}
        doc.update(extra)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)

