"""Span and count wrappers for the traced run.

`Tracer.install` wraps the public functions and methods of the eight library
modules from the outside, and rebinds every namespace that imported one of
them by name (`cli.build_supergraph`, `universality.closure_set`, ...). A
span records its name, start, end and parent; all spans of one child belong
to its one operation. Self time is a span's duration minus the time its child
spans cover. Hot kernels get count-only wrappers, whose time stays in the
enclosing span. Spans stay in memory until the operation ends and are then
written next to the operation's record.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import resource
import sys
import time

LAYERS = ("groups", "perms", "constructions", "graphs", "families", "generation", "universality", "cli")
# cli is wrapped at its entry point only: the cmd_* handlers are main's body,
# so cli.main's self time is parsing, dispatch, JSON rendering and writes.
ENTRY_ONLY = {"cli": ("main",)}
COUNT_ONLY = {
    "perms.compose", "perms.invert", "perms.conjugate", "perms.identity_perm", "perms.perm_order",
    "perms.support", "perms.parity", "perms.cycle_decomposition", "perms.cycle_notation",
    "perms.canonical_cycle", "perms.cycle_count", "perms.lehmer_rank", "perms.lehmer_unrank",
    "constructions.base_adjacent", "constructions.normalize_kind", "constructions.normalize_partition",
    "groups.element_cap",
    "groups.FiniteGroup.pair_subgroup_members", "groups.FiniteGroup.subgroup_flags",
}
# per-element methods, count-only wherever they are defined or overridden
COUNT_ONLY_METHODS = {
    "mul", "inv", "element_label", "elements", "labels", "require_enumerable", "element_order",
    "cyclic_subgroup", "commutes", "conjugate", "perm", "index_of", "multiplication_row",
    "has_edge", "degree",
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer: list[int] = []
        self.calls: list[int] = []
        self.busy: list[float] = []  # time with at least one span of the name open
        self.self_s: list[float] = []
        self.depth: list[int] = []
        self.layer_busy = [0.0] * len(LAYERS)
        self.layer_self = [0.0] * len(LAYERS)
        self.layer_depth = [0] * len(LAYERS)
        self.layer_rss_kb = [0] * len(LAYERS)
        self.stack: list[list] = []  # [name index, start, child time, span id]
        self.span_name = array.array("H")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.last_rss = _maxrss_kb()
        self.extra: dict[str, float] = {}
        self.distinct_subgroups: set = set()
        self.class_adjacency = None

    # --- span bookkeeping ---

    def _name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer.append(LAYERS.index(layer))
        self.calls.append(0)
        self.busy.append(0.0)
        self.self_s.append(0.0)
        self.depth.append(0)
        return len(self.names) - 1

    def _charge_rss(self) -> None:
        # growth in peak RSS since the last span boundary belongs to the
        # innermost open span's layer
        now = _maxrss_kb()
        if now != self.last_rss and self.stack:
            self.layer_rss_kb[self.layer[self.stack[-1][0]]] += now - self.last_rss
        self.last_rss = now

    def enter(self, idx: int) -> None:
        self._charge_rss()
        sid = len(self.span_name)
        self.span_name.append(idx)
        self.span_parent.append(self.stack[-1][3] if self.stack else -1)
        self.depth[idx] += 1
        self.layer_depth[self.layer[idx]] += 1
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        self.stack.append([idx, start, 0.0, sid])

    def exit(self) -> None:
        end = time.perf_counter()
        self._charge_rss()
        idx, start, child, sid = self.stack.pop()
        duration = end - start
        self.span_end[sid] = end
        layer = self.layer[idx]
        self.calls[idx] += 1
        self.self_s[idx] += duration - child
        self.layer_self[layer] += duration - child
        self.depth[idx] -= 1
        if not self.depth[idx]:
            self.busy[idx] += duration
        self.layer_depth[layer] -= 1
        if not self.layer_depth[layer]:
            self.layer_busy[layer] += duration
        if self.stack:
            self.stack[-1][2] += duration

    # --- wrappers ---

    def _span(self, idx: int, fn, measure=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tracer.enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if measure is not None:
                measure(args, result)
            return result

        return span

    def _count(self, idx: int, fn, measure=None):
        calls = self.calls

        @functools.wraps(fn)
        def count(*args, **kwargs):
            calls[idx] += 1
            result = fn(*args, **kwargs)
            if measure is not None:
                measure(args, result)
            return result

        return count

    def _count_items(self, idx: int, fn):
        calls, extra, key = self.calls, self.extra, self.names[idx] + ".items"

        @functools.wraps(fn)
        def generate(*args, **kwargs):
            calls[idx] += 1
            for item in fn(*args, **kwargs):
                extra[key] = extra.get(key, 0) + 1
                yield item

        return generate

    def _add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def _measure(self, name: str):
        """Work counted from a call's arguments and result, outside its span."""
        if name == "groups.closure_set":
            return lambda args, r: self._add("groups.closure_set.elements", len(r))
        if name == "groups.FiniteGroup.pair_subgroup_members":
            return lambda args, r: self.distinct_subgroups.add(r)
        if name == "graphs.Graph":
            return lambda args, r: self._add("graphs.Graph.edges", args[0].num_edges)
        return None

    def _wrap(self, name: str, layer: str, fn):
        idx = self._name(name, layer)
        measure = self._measure(name)
        if inspect.isgeneratorfunction(fn):
            return self._count_items(idx, fn)
        if name in COUNT_ONLY or name.rsplit(".", 1)[-1] in COUNT_ONLY_METHODS and name.count(".") == 2:
            return self._count(idx, fn, measure)
        return self._span(idx, fn, measure)

    def install(self) -> None:
        """Wrap every public function and method of the library layers."""
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"supergraphs.{layer}"]
            for name, value in list(vars(module).items()):
                if name.startswith("_") or name not in ENTRY_ONLY.get(layer, (name,)):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(value):
                    self._wrap_class(layer, value)
                elif callable(value):
                    if name == "class_adjacency":
                        self.class_adjacency = value
                    replaced[id(value)] = (value, self._wrap(f"{layer}.{name}", layer, value))
        for module_name, module in list(sys.modules.items()):
            if module_name != "supergraphs" and not module_name.startswith("supergraphs."):
                continue
            for name, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, name, hit[1])

    def _wrap_class(self, layer: str, cls) -> None:
        for name, value in list(vars(cls).items()):
            qualified = f"{layer}.{cls.__name__}.{name}"
            if name == "__init__" and cls.__name__ == "Graph":
                setattr(cls, name, self._wrap(f"{layer}.Graph", layer, value))
            elif name.startswith("_"):
                continue
            elif isinstance(value, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(qualified, layer, value.__func__)))
            elif inspect.isfunction(value):
                setattr(cls, name, self._wrap(qualified, layer, value))

    # --- results ---

    def _calls(self, name: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n == name)

    def _busy(self, *names: str) -> float:
        return sum(b for n, b in zip(self.names, self.busy) if n in names)

    def _self(self, *names: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_s) if n in names)

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of this one operation."""
        out: dict[str, float] = {}
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = sum(c for c, l in zip(self.calls, self.layer) if l == i)
            out[f"{layer}.busy_s"] = self.layer_busy[i]
            out[f"{layer}.self_s"] = self.layer_self[i]
            out[f"{layer}.rss_growth_mb"] = self.layer_rss_kb[i] / 1024
        pair_calls = self._calls("groups.FiniteGroup.pair_subgroup_members")
        series = ("groups.is_solvable_gens", "groups.is_nilpotent_gens")
        builds = ("constructions.build_base_graph", "constructions.build_supergraph",
                  "constructions.build_compressed", "constructions.quotient_supergraph")
        out.update({
            "groups.closure_set.calls": self._calls("groups.closure_set"),
            "groups.closure_set.elements": self.extra.get("groups.closure_set.elements", 0),
            "groups.closure_set.s": self._busy("groups.closure_set"),
            "groups.pair_subgroup_members.calls": pair_calls,
            "groups.pair_subgroup_members.distinct": len(self.distinct_subgroups),
            "groups.subgroup_flags.calls": self._calls("groups.FiniteGroup.subgroup_flags"),
            "groups.series.calls": sum(self._calls(n) for n in series),
            "groups.series.s": self._busy(*series),
            "groups.make_group.s": self._busy("groups.make_group"),
            "groups.conjugacy_classes.calls": self._calls("groups.FiniteGroup.conjugacy_classes"),
            "groups.conjugacy_classes.s": self._busy("groups.FiniteGroup.conjugacy_classes"),
            "constructions.build_partition.s": self._busy("constructions.build_partition"),
            "constructions.class_pair_adjacent.calls": self._calls("constructions.class_pair_adjacent"),
            "constructions.class_pair_adjacent.s": self._busy("constructions.class_pair_adjacent"),
            "constructions.base_adjacent.calls": self._calls("constructions.base_adjacent"),
            "constructions.build.self_s": self._self(*builds),
            "constructions.hierarchy_report.s": self._busy("constructions.hierarchy_report"),
            "graphs.Graph.calls": self._calls("graphs.Graph"),
            "graphs.Graph.edges": self.extra.get("graphs.Graph.edges", 0),
            "graphs.Graph.s": self._busy("graphs.Graph"),
            "graphs.bfs.calls": self._calls("graphs.Graph.bfs_distances"),
            "graphs.bfs.s": self._busy("graphs.Graph.bfs_distances"),
            "graphs.wiener_formula.s": self._busy("graphs.wiener_supergraph_formula"),
            "graphs.is_isomorphic.calls": self._calls("graphs.is_isomorphic"),
            "graphs.is_isomorphic.s": self._busy("graphs.is_isomorphic"),
            "graphs.complement.s": self._busy("graphs.Graph.complement"),
            "families.verify_family.s": self._busy("families.verify_family"),
            "generation.generating_graph.s": self._busy("generation.generating_graph"),
            "generation.invariable_generating_graph.s": self._busy("generation.invariable_generating_graph"),
            "generation.containment_checks.self_s": self._self("generation.containment_checks"),
            "universality.class_adjacency.calls": self._calls("universality.class_adjacency"),
            "universality.class_adjacency.s": self._busy("universality.class_adjacency"),
            "universality.class_adjacency.hits": self.class_adjacency.cache_info().hits,
            "universality.candidates": self.extra.get("perms.all_cycles.items", 0),
            "universality.embed.s": self._busy("universality.embed_graph", "universality.enhanced_embed"),
            "perms.conjugate.calls": self._calls("perms.conjugate"),
            "perms.perm_group_order.calls": self._calls("perms.perm_group_order"),
            "perms.perm_group_order.s": self._busy("perms.perm_group_order"),
            "perms.compose.calls": self._calls("perms.compose"),
            "cli.main.self_s": self._self("cli.main"),
        })
        return out

    def write_spans(self, stem, op_key: str) -> None:
        """Spans as a JSON header plus packed arrays (name index u16, parent
        span i32, start f64, end f64; times from time.perf_counter)."""
        header = {"op": op_key, "names": self.names, "spans": len(self.span_name),
                  "arrays": ["name:H", "parent:i", "start:d", "end:d"]}
        stem.with_suffix(".json").write_text(json.dumps(header))
        with open(stem.with_suffix(".bin"), "wb") as out:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(out)
