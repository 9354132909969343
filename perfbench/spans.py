"""In-memory span recorder and the wrappers that feed it.

A span is one call into a public function of the ``hypergroups`` package,
recorded with its name, start, end, parent span and job id.  Spans stay in
memory until the run ends; :func:`layer_metrics` turns them into the
per-layer figures and :meth:`Recorder.dump` writes them out as JSON lines.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# jsonio functions grouped into the two directions the metrics report
JSONIO_PARSE = {"load_document", "detect_kind", "scheme_from_json",
                "cayley_from_json", "hypergroup_from_json", "generalized_from_json"}
JSONIO_EMIT = {"dump_report", "chartable_to_csv", "dualtable_to_csv",
               "hypergroup_to_json", "scheme_to_json", "generalized_to_json"}

# per-value formatters: a span per number would swamp the trace, so their
# time stays with the caller (the CLI command or the jsonio emitter)
UNWRAPPED = {"jsonio.format_complex", "jsonio.format_float"}

# functions whose inputs are counted, so a repeated call shows as waste
KEYED = {"hypergroup.hypergroup_from_scheme", "harmonic.dual_convolution",
         "families.gab.gab_ball"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    job: str | None = None
    error: bool = False
    key: tuple | None = None
    out_bytes: int = 0


@dataclass
class Recorder:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    job: str | None = None
    active: bool = False
    # strong references to keyed arguments, so an id() is never reused
    _held: list = field(default_factory=list)

    def open(self, name: str, key=None) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               job=self.job, key=key))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int, error: bool = False, out_bytes: int = 0) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        span.out_bytes = out_bytes
        self.stack.pop()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "job": s.job,
                                     "error": s.error}) + "\n")


def _arg_key(rec: Recorder, args) -> tuple:
    """Hashable identity of a call's arguments; unhashable ones by id."""
    out = []
    for a in args:
        if isinstance(a, np.ndarray):
            rec._held.append(a)
            out.append(("id", id(a)))
            continue
        try:
            hash(a)
        except TypeError:
            rec._held.append(a)
            out.append(("id", id(a)))
        else:
            if type(a).__hash__ is object.__hash__:
                rec._held.append(a)
            out.append(a)
    return tuple(out)


def _wrap(rec: Recorder, layer: str, fn):
    base = f"{layer}.{fn.__name__}"
    keyed = base in KEYED
    emits = layer == "jsonio" and fn.__name__ in JSONIO_EMIT

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        name = base
        if base == "hypergroup.verify_hypergroup":
            name += ".exact" if args[0].exact else ".float"
        idx = rec.open(name, _arg_key(rec, args) if keyed else None)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, error=True)
            raise
        rec.close(idx, out_bytes=len(out.encode()) if emits and isinstance(out, str) else 0)
        return out

    wrapper.__wrapped_by_perfbench__ = fn
    return wrapper


def instrument(rec: Recorder) -> int:
    """Wrap the public functions of every loaded ``hypergroups`` module.

    Every module-level binding of a wrapped function is replaced, and so
    are dict values at module level (the CLI dispatch table), because
    several modules import functions by name.  Returns the number of
    functions wrapped.
    """
    mods = {name: m for name, m in sys.modules.items()
            if m is not None and (name == "hypergroups" or name.startswith("hypergroups."))}
    wrapped: dict[int, object] = {}
    for name, mod in mods.items():
        layer = name[len("hypergroups."):]
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != name or f"{layer}.{attr}" in UNWRAPPED
                    or hasattr(obj, "__wrapped_by_perfbench__")):
                continue
            wrapped[id(obj)] = _wrap(rec, layer, obj)
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for k, v in list(obj.items()):
                    if inspect.isfunction(v) and id(v) in wrapped:
                        obj[k] = wrapped[id(v)]
    return len(wrapped)


def self_times(spans, first: int = 0) -> list:
    """Duration of each span from ``first`` on, minus its direct children.

    Parents are indices into ``spans``; a span that starts a slice has its
    parent before ``first`` or none.
    """
    out = [s.end - s.start for s in spans[first:]]
    for s in spans[first:]:
        if s.parent is not None and s.parent >= first:
            out[s.parent - first] -= s.end - s.start
    return out


def layer_metrics(all_spans, first: int = 0) -> dict:
    """Per-layer figures of the spans from ``first`` on (one traced pass)."""
    spans = all_spans[first:]
    selft = self_times(all_spans, first)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    keys: dict[str, set] = {}
    emit_bytes = 0
    for s, t in zip(spans, selft):
        self_s[s.name] = self_s.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
        errors[s.name] = errors.get(s.name, 0) + int(s.error)
        if s.key is not None:
            keys.setdefault(s.name, set()).add(s.key)
        emit_bytes += s.out_bytes

    def total(pred) -> float:
        return sum(v for k, v in self_s.items() if pred(k))

    def ratio(name) -> float:
        n = calls.get(name, 0)
        return len(keys.get(name, ())) / n if n else 0.0

    def jsonio_group(group):
        return lambda k: k.startswith("jsonio.") and k.split(".", 1)[1] in group

    m = {
        "cli.self_s": total(lambda k: k.startswith("cli.cmd_")),
        "jsonio.parse.self_s": total(jsonio_group(JSONIO_PARSE)),
        "jsonio.parse.calls": calls.get("jsonio.load_document", 0),
        "jsonio.emit.self_s": total(jsonio_group(JSONIO_EMIT)),
        "jsonio.emit.bytes": emit_bytes,
        "schemes.build_scheme.rejected": errors.get("schemes.build_scheme", 0),
    }
    for name in ("schemes.build_scheme", "schemes.scheme_from_distance_regular_graph",
                 "schemes.audit_intersection_identities", "groups.group_from_table",
                 "groups.scheme_from_group_quotient", "hypergroup.verify_hypergroup.exact",
                 "hypergroup.verify_hypergroup.float", "hypergroup.hypergroup_from_scheme",
                 "hypergroup.make_hypergroup", "harmonic.character_table",
                 "harmonic.dual_convolution", "harmonic.dual_hypergroup",
                 "harmonic.is_positive_definite", "generalized.build_generalized",
                 "generalized.build_windowed", "generalized.positive_connection_check",
                 "families.gab.gab_kernel_psd", "families.gab.gab_ball",
                 "families.gab.gab_dual_measure", "families.gab.gab_linearization",
                 "families.cosh.cosh_window_scheme", "families.cosh.window_character"):
        m[name + ".self_s"] = self_s.get(name, 0.0)
    for name in ("schemes.build_scheme", "hypergroup.hypergroup_from_scheme",
                 "harmonic.dual_convolution", "families.gab.gab_ball",
                 "families.gab.gab_dual_measure"):
        m[name + ".calls"] = calls.get(name, 0)
    for name in sorted(KEYED):
        m[name + ".distinct_ratio"] = ratio(name)
    return m
