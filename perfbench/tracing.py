"""Spans and counters around calls into coxcent's layers, for traced runs.

The wrappers are installed at run time in the benchmark's child process;
the program's source is never changed.  A span records (name, start, end,
parent); spans stay in memory and are written out when the run ends.  A
layer's self time is its span time minus the time of the spans nested in it.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# per-layer metric -> span names whose self times it sums
TIMES = {
    "cli.import_s": ["cli.import"],
    "group.build_s": ["group.build", "group.order"],
    "involutions.enumerate_s": ["involutions.enumerate"],
    "permengine.class_set_s": ["permengine.class_set"],
    "permengine.order_s": ["permengine.order"],
    "permengine.quotient_s": ["permengine.quotient"],
    "permengine.fingerprint_s": ["permengine.fingerprint"],
    "structure.profiles_s": ["structure.profiles"],
    "structure.centralizer_s": ["structure.centralizer"],
    "structure.tilde_s": ["structure.tilde"],
    "structure.gamma_s": ["structure.gamma"],
    "structure.reflection_type_s": ["structure.reflection_type"],
    "structure.checks_s": ["structure.checks"],
    "rootsys.degree_of_s": ["rootsys.degree_of"],
    "tables.expected_s": ["tables.expected"],
    "tables.compare_s": ["tables.compare"],
    "tables.serialize_s": ["tables.serialize"],
}

# per-layer metric -> counter name (calls of a span or a counted function,
# or a quantity added by a hook on a layer's result)
COUNTS = {
    "group.builds": "group.build",
    "involutions.classes": "involutions.classes",
    "involutions.orbit_elements": "involutions.orbit_elements",
    "involutions.mirrored_classes": "involutions.mirrored_classes",
    "permengine.class_set_calls": "permengine.class_set",
    "structure.centralizer_calls": "structure.centralizer",
    "structure.centralizer_fallbacks": "structure.orbit_stabilizer",
    "structure.tilde_calls": "structure.tilde",
    "structure.checks_run": "structure.checks_run",
    "structure.checks_skipped": "structure.checks_skipped",
    "rootsys.orthogonal_calls": "rootsys.orthogonal",
    "rootsys.degree_of_calls": "rootsys.degree_of",
    "tables.artifact_bytes": "tables.artifact_bytes",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.counts[name] += 1
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def timed(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.counts, result)
            return result

        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> Counter:
        nested = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                nested[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - nested[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        self_time = self.self_times()
        out = {m: sum(self_time[n] for n in names) for m, names in TIMES.items()}
        out.update({m: self.counts[c] for m, c in COUNTS.items()})
        return out


def _count_classes(counts: Counter, classes) -> None:
    counts["involutions.classes"] += len(classes)
    own = [c for c in classes if c.mirror_of is None]
    counts["involutions.mirrored_classes"] += len(classes) - len(own)
    counts["involutions.orbit_elements"] += sum(c.size for c in own)


def _count_checks(counts: Counter, results) -> None:
    skipped = sum(1 for r in results if r.status == "skipped")
    counts["structure.checks_skipped"] += skipped
    counts["structure.checks_run"] += len(results) - skipped


def _count_bytes(counts: Counter, text: str) -> None:
    counts["tables.artifact_bytes"] += len(text.encode("utf-8"))


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every coxcent module global that names `original`, so calls
    made through `from .x import f` bindings are wrapped too."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "coxcent" or mod_name.startswith("coxcent."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each coxcent layer.  Call after
    `import coxcent.cli`, before any workload code runs."""
    from coxcent import group, involutions, permengine, rootsys, structure, tables

    functions = [
        (involutions.enumerate_involution_classes, "involutions.enumerate", _count_classes),
        (permengine.conjugacy_class_set, "permengine.class_set", None),
        (permengine.quotient_action, "permengine.quotient", None),
        (permengine.fingerprint, "permengine.fingerprint", None),
        (structure.profiles_for_group, "structure.profiles", None),
        (structure.centralizer, "structure.centralizer", None),
        (structure.tilde_side, "structure.tilde", None),
        (structure.gamma, "structure.gamma", None),
        (structure.reflection_subgroup_type, "structure.reflection_type", None),
        (structure.run_property_suite, "structure.checks", _count_checks),
        (tables.expected_rows, "tables.expected", None),
        (tables.computed_rows, "tables.compare", None),
        (tables.compare_rows, "tables.compare", None),
        (tables.class_csv, "tables.serialize", _count_bytes),
        (tables.class_json, "tables.serialize", _count_bytes),
    ]
    for fn, name, after in functions:
        _replace_everywhere(fn, tracer.timed(fn, name, after))

    # Only the calls made from structure count as centralizer fallbacks.
    structure.orbit_stabilizer = tracer.counted(
        permengine.orbit_stabilizer, "structure.orbit_stabilizer"
    )

    cls = group.CoxeterGroup
    cls.__init__ = tracer.timed(cls.__init__, "group.build")
    order = cls.__dict__["order"]  # a cached_property; wrap the function it caches
    order.func = tracer.timed(order.func, "group.order")

    # The Schreier-Sims work of CoxeterGroup.order runs in SubgroupHandle and
    # so counts as permengine.order, not group.build: baseline.json maps
    # permengine.order_s to setup_s as well as wall_s.
    handle = permengine.SubgroupHandle
    handle.from_gens = staticmethod(tracer.timed(handle.from_gens, "permengine.order"))
    handle.order = tracer.timed(handle.order, "permengine.order")

    for geometry in (rootsys.RootSystem, rootsys.DihedralModel):
        geometry.degree_of = tracer.timed(geometry.degree_of, "rootsys.degree_of")
        geometry.orthogonal = tracer.counted(geometry.orthogonal, "rootsys.orthogonal")
