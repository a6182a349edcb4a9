"""Spans around calls into coverlab's modules, made from the benchmark's side.

Tracing replaces a public function by a wrapper in every coverlab module
namespace that binds it (so calls from other modules and from inside the
defining module are both seen), and a method by a wrapper on its class.
Each call records a span with its parent and the request it belongs to; a
generator's span covers only the time spent inside it.  A layer's self time
is its spans' durations minus the time their child spans cover.  Leaving
the Instrumented context puts every original back, so an untraced pass runs
the unmodified program.
Per-call hot paths such as Permutation.__mul__ are deliberately not wrapped.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name.  Attributes with a dot are methods.
TARGETS = {
    ("constructions", "hexagon"): "constructions.build",
    ("constructions", "cube"): "constructions.build",
    ("constructions", "icosahedron"): "constructions.build",
    ("constructions", "thas_somma"): "constructions.build",
    ("graphcore", "verify_cover"): "graphcore.verify_cover",
    ("graphcore", "spectrum_check"): "graphcore.spectrum_check",
    ("autgroup", "automorphism_group"): "autgroup.automorphism_group",
    ("autgroup", "automorphism_generators"): "autgroup.automorphism_generators",
    ("perms", "PermGroup.order"): "perms.order",
    ("perms", "PermGroup.elements"): "perms.elements",
    ("perms", "PermGroup.point_stabilizer"): "perms.point_stabilizer",
    ("perms", "PermGroup.normalizer"): "perms.normalizer",
    ("perms", "PermGroup.centralizer_of_group"): "perms.centralizer_of_group",
    ("perms", "subgroups_of"): "perms.subgroups_of",
    ("groupops", "covering_group"): None,  # named by mode, see _name_for
    ("groupops", "quotient_cover"): "groupops.quotient_cover",
    ("groupops", "structure_audit"): "groupops.structure_audit",
    ("groupops", "involution_audit"): "groupops.involution_audit",
    ("groupops", "fibre_action"): "groupops.fibre_action",
    ("groupops", "arc_orbit_count"): "groupops.arc_orbit_count",
    ("groupops", "subdegree_identity_check"):
        "groupops.subdegree_identity_check",
    ("frames", "all_characters"): "frames.all_characters",
    ("frames", "character_matrix"): "frames.character_matrix",
    ("frames", "hermitian_jacobi"): "frames.hermitian_jacobi",
    ("frames", "extract_lines"): "frames.extract_lines",
    ("params", "feasible_B"): "params.feasible_B",
    ("params", "feasible_A"): "params.feasible_A",
    ("params", "derive_params"): "params.derive_params",
    ("exact", "QuadExt.sqrt"): "exact.QuadExt.sqrt",
    ("numtheory", "zsigmondy_corollary_solve"):
        "numtheory.zsigmondy_corollary_solve",
    ("numtheory", "lifting_identity_check"): "numtheory.lifting_identity_check",
    ("numtheory", "gcd_qpow"): "numtheory.gcd_qpow",
    ("casecheck", "all_cases"): "casecheck.all_cases",
    ("casecheck", "wreathed_congruence_case"):
        "casecheck.wreathed_congruence_case",
    ("cli", "main"): "cli.main",
}

# per-layer metrics: (metric name, span name, kind); kind is "self_s",
# "calls" or the name of a counter
LAYER_METRICS = [
    ("constructions.build_s", "constructions.build", "self_s"),
    ("graphcore.verify_cover_s", "graphcore.verify_cover", "self_s"),
    ("graphcore.verify_cover_calls", "graphcore.verify_cover", "calls"),
    ("graphcore.spectrum_check_s", "graphcore.spectrum_check", "self_s"),
    ("autgroup.automorphism_group_s", "autgroup.automorphism_group", "self_s"),
    ("autgroup.automorphism_generators_s", "autgroup.automorphism_generators",
     "self_s"),
    ("autgroup.automorphism_generators_calls",
     "autgroup.automorphism_generators", "calls"),
    ("autgroup.generators_found", "autgroup.automorphism_generators",
     "generators_found"),
    ("perms.order_s", "perms.order", "self_s"),
    ("perms.elements_s", "perms.elements", "self_s"),
    ("perms.elements_yielded", "perms.elements", "yielded"),
    ("perms.point_stabilizer_s", "perms.point_stabilizer", "self_s"),
    ("perms.normalizer_s", "perms.normalizer", "self_s"),
    ("perms.centralizer_of_group_s", "perms.centralizer_of_group", "self_s"),
    ("perms.subgroups_of_s", "perms.subgroups_of", "self_s"),
    ("groupops.covering_group_search_s", "groupops.covering_group_search",
     "self_s"),
    ("groupops.covering_group_search_calls", "groupops.covering_group_search",
     "calls"),
    ("groupops.covering_group_chain_s", "groupops.covering_group_chain",
     "self_s"),
    ("groupops.covering_group_chain_calls", "groupops.covering_group_chain",
     "calls"),
    ("groupops.quotient_cover_s", "groupops.quotient_cover", "self_s"),
    ("groupops.structure_audit_s", "groupops.structure_audit", "self_s"),
    ("groupops.involution_audit_s", "groupops.involution_audit", "self_s"),
    ("groupops.involution_audit_calls", "groupops.involution_audit", "calls"),
    ("groupops.fibre_action_s", "groupops.fibre_action", "self_s"),
    ("groupops.arc_orbit_count_s", "groupops.arc_orbit_count", "self_s"),
    ("groupops.subdegree_identity_check_s",
     "groupops.subdegree_identity_check", "self_s"),
    ("frames.all_characters_s", "frames.all_characters", "self_s"),
    ("frames.character_matrix_s", "frames.character_matrix", "self_s"),
    ("frames.hermitian_jacobi_s", "frames.hermitian_jacobi", "self_s"),
    ("frames.extract_lines_s", "frames.extract_lines", "self_s"),
    ("params.feasible_B_s", "params.feasible_B", "self_s"),
    ("params.feasible_A_s", "params.feasible_A", "self_s"),
    ("params.derive_params_s", "params.derive_params", "self_s"),
    ("params.derive_params_calls", "params.derive_params", "calls"),
    ("exact.QuadExt.sqrt_s", "exact.QuadExt.sqrt", "self_s"),
    ("exact.QuadExt.sqrt_calls", "exact.QuadExt.sqrt", "calls"),
    ("numtheory.zsigmondy_corollary_solve_s",
     "numtheory.zsigmondy_corollary_solve", "self_s"),
    ("numtheory.lifting_identity_check_s", "numtheory.lifting_identity_check",
     "self_s"),
    ("numtheory.lifting_identity_check_calls",
     "numtheory.lifting_identity_check", "calls"),
    ("numtheory.gcd_qpow_s", "numtheory.gcd_qpow", "self_s"),
    ("casecheck.all_cases_s", "casecheck.all_cases", "self_s"),
    ("casecheck.wreathed_congruence_case_s",
     "casecheck.wreathed_congruence_case", "self_s"),
    ("cli.main_s", "cli.main", "self_s"),
]


class Tracer:
    """Span stack plus per-name totals; one instance per traced pass."""

    def __init__(self):
        self.request = None
        self.spans: list[tuple] = []   # (id, parent id, request, name, dur, self)
        self._stack: list[list] = []   # [id, name, start, child time, self acc]
        self._next_id = 0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(lambda: defaultdict(int))

    def open(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0.0, 0.0, 0.0]
        self.calls[name] += 1
        return frame

    def resume(self, frame: list) -> None:
        frame[2] = time.perf_counter()
        frame[3] = 0.0
        self._stack.append(frame)

    def suspend(self, frame: list) -> float:
        dur = time.perf_counter() - frame[2]
        popped = self._stack.pop()
        assert popped is frame
        frame[4] += dur - frame[3]
        if self._stack:
            self._stack[-1][3] += dur
        return dur

    def close(self, frame: list, dur: float) -> None:
        parent = self._stack[-1][0] if self._stack else 0
        self.spans.append((frame[0], parent, self.request, frame[1], dur,
                           frame[4]))
        self.self_s[frame[1]] += frame[4]

    def layer_metrics(self) -> dict[str, float]:
        out = {}
        for metric, span, kind in LAYER_METRICS:
            if kind == "self_s":
                out[metric] = self.self_s.get(span, 0.0)
            elif kind == "calls":
                out[metric] = self.calls.get(span, 0)
            else:
                out[metric] = self.counters[span][kind]
        return out

    def call_tree(self) -> list[dict]:
        """Spans aggregated by (request, call path): calls, total, self."""
        by_id = {s[0]: s for s in self.spans}
        agg: dict[tuple, list] = {}
        for sid, parent, request, name, dur, own in self.spans:
            path = [name]
            p = parent
            while p:
                path.append(by_id[p][3])
                p = by_id[p][1]
            key = (request, " > ".join(reversed(path)))
            slot = agg.setdefault(key, [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += dur
            slot[2] += own
        return [{"request": k[0], "path": k[1], "calls": v[0],
                 "total_s": v[1], "self_s": v[2]}
                for k, v in sorted(agg.items(), key=lambda kv: -kv[1][2])]


def _name_for(base: str | None, args, kwargs) -> str:
    if base is not None:
        return base
    # covering_group(g, group=None): coloured search, or the chain of a group
    group = args[1] if len(args) > 1 else kwargs.get("group")
    return ("groupops.covering_group_search" if group is None
            else "groupops.covering_group_chain")


def _wrap(tracer: Tracer, fn, base: str | None):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            frame = tracer.open(_name_for(base, args, kwargs))
            total = 0.0
            gen = fn(*args, **kwargs)
            try:
                while True:
                    tracer.resume(frame)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        total += tracer.suspend(frame)
                    tracer.counters[frame[1]]["yielded"] += 1
                    yield item
            finally:
                gen.close()
                tracer.close(frame, total)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(_name_for(base, args, kwargs))
        tracer.resume(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = tracer.suspend(frame)
            tracer.close(frame, dur)
        if frame[1] == "autgroup.automorphism_generators":
            tracer.counters[frame[1]]["generators_found"] += len(result)
        return result
    return wrapper


class Instrumented:
    """Context manager: install wrappers for TARGETS, restore on exit."""

    def __init__(self, tracer: Tracer, package: str = "coverlab"):
        self.tracer = tracer
        self.package = package
        self._undo: list[tuple] = []

    def __enter__(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == self.package
                                         or k.startswith(self.package + "."))]
        for (mod_name, attr), span in TARGETS.items():
            home = sys.modules[f"{self.package}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(_wrap(self.tracer, raw.__func__, span))
                else:
                    new = _wrap(self.tracer, raw, span)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(home, attr)
            wrapped = _wrap(self.tracer, fn, span)
            for mod in modules:
                if mod.__dict__.get(attr) is fn:
                    self._undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False
