"""Span tracer for the traced benchmark run.

The tracer wraps public conelab functions and methods from outside the
program and records one span per call: name, start, end, parent span and an
optional result size.  A module-level function is replaced in every conelab
module that holds it, because `composite`, `axioms` and `fixtures` import
functions such as `face_dimension` and `is_extremal_ray` by name; wrapping
only the defining module would miss those calls.

Spans stay in memory while the workload runs.  `aggregate` turns them into
per-layer metrics and `write_tsv` saves them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (span name, owner, attribute).  An owner is "module" for a function and
# "module:Class" for a method.
TARGETS = (
    ("exact.facets", "conelab.exact:PolyhedralData", "facets"),
    ("exact.extremal_ray_indices", "conelab.exact:PolyhedralData",
     "extremal_ray_indices"),
    ("exact.null_space", "conelab.exact", "null_space"),
    ("exact.rref", "conelab.exact", "rref"),
    ("exact.rank", "conelab.exact", "rank"),
    ("exact.feasible_nonneg", "conelab.exact", "feasible_nonneg"),
    ("axioms.search_weak_self_duality", "conelab.axioms",
     "search_weak_self_duality"),
    ("axioms.search_spd_self_duality", "conelab.axioms",
     "search_spd_self_duality"),
    ("axioms.check_self_dual", "conelab.axioms", "check_self_dual"),
    ("axioms.homogeneity_witness", "conelab.axioms", "homogeneity_witness"),
    ("axioms.pure_transitivity_witness", "conelab.axioms",
     "pure_transitivity_witness"),
    ("axioms.continuous_pure_transitivity", "conelab.axioms",
     "continuous_pure_transitivity"),
    ("eja.product", "conelab.eja:SimpleFactor", "product"),
    ("eja.quadratic_rep", "conelab.eja:JordanAlgebra", "quadratic_rep"),
    ("eja.spectral", "conelab.eja:SimpleFactor", "spectral"),
    ("eja.from_matrix", "conelab.eja:SimpleFactor", "from_matrix"),
    ("eja.to_matrix", "conelab.eja:SimpleFactor", "to_matrix"),
    ("cones.face_dimension", "conelab.cones", "face_dimension"),
    ("cones.face_span_basis", "conelab.cones:PolyhedralCone",
     "face_span_basis"),
    ("cones.face_span_basis", "conelab.cones:EJACone", "face_span_basis"),
    ("cones.face_span_basis", "conelab.cones:SharedCornerCone",
     "face_span_basis"),
    ("cones.face_span_basis", "conelab.composite:LinearImageCone",
     "face_span_basis"),
    ("cones.face_span_basis", "conelab.composite:MaxTensorCone",
     "face_span_basis"),
    ("cones.is_extremal_ray", "conelab.cones", "is_extremal_ray"),
    ("cones.member.polyhedral", "conelab.cones:PolyhedralCone", "member"),
    ("cones.member.eja", "conelab.cones:EJACone", "member"),
    ("cones.member.shared_corner", "conelab.cones:SharedCornerCone",
     "member"),
    ("cones.member.linear_image", "conelab.composite:LinearImageCone",
     "member"),
    ("cones.member.max_tensor", "conelab.composite:MaxTensorCone", "member"),
    ("cones.is_order_isomorphism", "conelab.cones", "is_order_isomorphism"),
    ("composite.pairing_minimum", "conelab.composite:MaxTensorCone",
     "pairing_minimum"),
    ("composite.purity_preservation_check", "conelab.composite",
     "purity_preservation_check"),
    ("composite.steer", "conelab.composite", "steer"),
    ("fixtures.build_system", "conelab.fixtures", "build_system"),
    ("fixtures.check", "conelab.fixtures", "run_check"),
    ("classify.survivors", "conelab.classify", "survivors_local_tomography"),
    ("classify.survivors", "conelab.classify",
     "survivors_injective_composite"),
    ("classify.survivors", "conelab.classify", "survivors_classicality"),
    ("classify.trace_json", "conelab.classify", "trace_json"),
)

# The ten registry checks; `fixtures.check` spans are named per check.
CHECKS = ("self-dual", "weak-self-duality", "spd-self-duality",
          "homogeneity", "pure-transitivity", "continuous-pure-transitivity",
          "reducibility", "steering", "purity-preservation",
          "local-tomography")

SEARCHES = ("axioms.search_weak_self_duality",
            "axioms.search_spd_self_duality")
MEMBERS = tuple(name for name, _, _ in TARGETS
                if name.startswith("cones.member."))

# (metric, unit) for the ratios and counts derived from spans.
DERIVED = (
    ("exact.facets.returned", "count"),
    ("exact.facets.null_space_per_facet", "calls/facet"),
    ("axioms.search.bijections_per_verdict", "calls/search"),
    ("cones.face_dimension.directions", "count"),
    ("cones.face_dimension.member_per_direction", "calls/direction"),
    ("classify.trace_bytes", "bytes"),
    ("trace.overhead_frac", "fraction"),
)


def span_names() -> list[str]:
    """Traced span names in report order, each once."""
    names = [n for n, _, _ in TARGETS if n != "fixtures.check"]
    return list(dict.fromkeys(names))


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for check in CHECKS:
        units[f"fixtures.check.{check}.s"] = "s"
    units.update(DERIVED)
    return units


def _conelab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "conelab"
                                  or name.startswith("conelab."))]


class Tracer:
    """Records spans for the `targets` while installed; single-threaded."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("i")
        self._stack = [-1]
        self._restore: list[tuple] = []
        self._seen_facets: dict[int, object] = {}

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _first_facets(self, args, result) -> int:
        # facets are cached per PolyhedralData; only the first call on an
        # object enumerates them, so only it counts toward the ratio base
        data = args[0]
        if id(data) in self._seen_facets:
            return -1
        self._seen_facets[id(data)] = data
        return len(result)

    def _wrap(self, fn, name: str):
        name_id, parent, start, end, size = (self.name_id, self.parent,
                                             self.start, self.end, self.size)
        stack = self._stack
        clock = time.perf_counter
        fixed = self._intern(name)
        if name == "fixtures.check":
            def ident(args):
                return self._intern(f"fixtures.check.{args[0]}")
        else:
            ident = None
        if name == "exact.facets":
            sizer = self._first_facets
        elif name == "cones.face_span_basis":
            def sizer(args, result):
                return len(result)
        elif name == "classify.trace_json":
            def sizer(args, result):
                return len(result.encode("utf-8"))
        else:
            sizer = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(fixed if ident is None else ident(args))
            parent.append(stack[-1])
            end.append(0.0)
            size.append(-1)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if sizer is not None:
                size[idx] = sizer(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target at every binding inside the conelab package."""
        for name, owner, attr in self.targets:
            mod_name, _, cls_name = owner.partition(":")
            module = importlib.import_module(mod_name)
            if cls_name:
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._swap(cls, attr, original, self._wrap(original, name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for mod in _conelab_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, original, wrapper)
        missed = [f"{mod.__name__}.{key}"
                  for mod in _conelab_modules()
                  for key, value in vars(mod).items()
                  if any(value is orig for _, _, orig in self._restore)]
        if missed:
            self.uninstall()
            raise RuntimeError(f"unwrapped bindings remain: {missed}")

    def _swap(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ------------------------------------------------------------

    def _ancestor_flags(self, wanted: set[int]) -> list[bool]:
        """Per span: does some ancestor carry a name id in `wanted`?"""
        flags = [False] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                flags[i] = flags[p] or self.name_id[p] in wanted
        return flags

    def ids(self, *names: str) -> set[int]:
        return {self._ids[n] for n in names if n in self._ids}

    def searches_tries(self) -> list[int]:
        """For each bijection-search span in call order, the null spaces it
        solved outside facet enumeration: one per bijection tried."""
        search_ids = self.ids(*SEARCHES)
        null_id = self.ids("exact.null_space")
        in_facets = self._ancestor_flags(self.ids("exact.facets"))
        owner: dict[int, int] = {}
        counts: dict[int, int] = {}
        for i, p in enumerate(self.parent):
            nid = self.name_id[i]
            if nid in search_ids:
                counts[i] = 0
                owner[i] = i
            elif p >= 0 and p in owner:
                owner[i] = owner[p]
                if nid in null_id and not in_facets[i]:
                    counts[owner[i]] += 1
        return [counts[i] for i in sorted(counts)]

    def aggregate(self) -> dict[str, float]:
        """Per-layer metrics over every recorded span (no overhead_frac)."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(n):
            nid = self.name_id[i]
            calls[nid] += 1
            own[nid] += dur[i] - child[i]
            # inclusive time counts only the outermost of nested same-name
            # spans (build_system recurses into composite factors)
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != nid:
                p = self.parent[p]
            if p < 0:
                total[nid] += dur[i]
        by_name = {name: (calls[k], total[k], own[k])
                   for k, name in enumerate(self.names)}

        out: dict[str, float] = {}
        for name in span_names():
            c, s, self_s = by_name.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = c
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
        for check in CHECKS:
            out[f"fixtures.check.{check}.s"] = by_name.get(
                f"fixtures.check.{check}", (0, 0.0, 0.0))[1]

        facets_id = self.ids("exact.facets")
        null_id = self.ids("exact.null_space")
        in_facets = self._ancestor_flags(facets_id)
        returned = sum(self.size[i] for i in range(n)
                       if self.name_id[i] in facets_id and self.size[i] > 0)
        facet_nulls = sum(1 for i in range(n)
                          if self.name_id[i] in null_id and in_facets[i])
        out["exact.facets.returned"] = returned
        out["exact.facets.null_space_per_facet"] = _ratio(facet_nulls,
                                                          returned)

        tries = self.searches_tries()
        out["axioms.search.bijections_per_verdict"] = _ratio(sum(tries),
                                                             len(tries))

        face_id = self.ids("cones.face_dimension")
        basis_id = self.ids("cones.face_span_basis")
        member_ids = self.ids(*MEMBERS)
        directions = members = 0
        for i, p in enumerate(self.parent):
            if p >= 0 and self.name_id[p] in face_id:
                if self.name_id[i] in basis_id:
                    directions += max(self.size[i], 0)
                elif self.name_id[i] in member_ids:
                    members += 1
        out["cones.face_dimension.directions"] = directions
        out["cones.face_dimension.member_per_direction"] = _ratio(members,
                                                                  directions)
        trace_ids = self.ids("classify.trace_json")
        out["classify.trace_bytes"] = sum(self.size[i] for i in range(n)
                                          if self.name_id[i] in trace_ids)
        return out

    def write_tsv(self, path):
        """Save the spans: name, start and end (s from the first span),
        parent index (-1 at the top) and result size (-1 if none)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tsize\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t"
                         f"{self.parent[i]}\t{self.size[i]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
