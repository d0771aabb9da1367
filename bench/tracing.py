"""Span tracing of bcsgap's public functions, from outside the package.

``install()`` wraps each function in TARGETS wherever it is looked up: the
defining module, every bcsgap module that imported it by name (e.g.
``from .gap_solver import solve_at_T``) and, for methods, the class.
``uninstall()`` restores the original objects.  Spans (name, start, end,
parent, counters) live in flat arrays and are written out once, at exit.
``summarize()`` turns the span files of many requests into per-layer metrics.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from array import array
from dataclasses import fields, is_dataclass

import numpy as np

# (module, attribute path, counter kind).  Counter kinds:
#   fp         record whether the argument fingerprint occurred before
#   slice      fp plus GapSlice.iterations, the zero-slice shortcut and
#              budget exhaustion
#   quad       QuadResult.evaluations
#   fevals     calls of the f passed to the root finder
#   by_kernel  span name gets the kernel type appended
TARGETS = [
    ("cli", "main", None),
    ("cli", "cmd_simple_gap", None), ("cli", "cmd_gap", None),
    ("cli", "cmd_sweep", None), ("cli", "cmd_tc", None),
    ("cli", "cmd_diagnose", None), ("cli", "cmd_thermo", None),
    ("cli", "cmd_ratio", None), ("cli", "cmd_vfun", None),
    ("cli", "cmd_hc", None), ("cli", "cmd_universal", None),
    ("config", "load_config", None),
    ("model", "eval_dos", None),
    ("quadrature", "integrate", "quad"),
    ("quadrature", "composite_gauss", None),
    ("rootfind", "solve_bracketed", "fevals"),
    ("interpolate", "pchip_slopes", None),
    ("interpolate", "pchip_eval_prepared", None),
    ("interpolate", "MonotoneCubic.__init__", None),
    ("simple_gap", "solve_simple_gap", "fp"),
    ("simple_gap", "solve_tau", None),
    ("simple_gap", "solve_tau0", None),
    ("gap_solver", "Discretization.__init__", "fp"),
    ("gap_solver", "Discretization.kernel_apply", None),
    ("gap_solver", "Discretization.spectral_radius", None),
    ("gap_solver", "solve_at_T", "slice"),
    ("gap_solver", "find_Tc", "by_kernel"),
    ("gap_solver", "du_dT_at_fixed_point", None),
    ("thermo", "extract_v", None),
    ("thermo", "omega_normal", None),
    ("thermo", "cv_normal", None),
    ("thermo", "psi", None),
    ("thermo", "build_thermo_curve", None),
    ("critical_field", "build_hc_curve", None),
]

REPEAT, SHORTCUT, BUDGET = 1, 2, 4

# CLI handler -> subcommand name used in the metric.
SUBCOMMANDS = {
    "cmd_simple_gap": "simple-gap", "cmd_gap": "gap", "cmd_sweep": "sweep",
    "cmd_tc": "tc", "cmd_diagnose": "diagnose", "cmd_thermo": "thermo",
    "cmd_ratio": "ratio", "cmd_vfun": "vfun", "cmd_hc": "hc",
    "cmd_universal": "universal",
}


def fingerprint(obj):
    """Hashable value identifying an argument by content, not identity."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, hashlib.blake2b(np.ascontiguousarray(obj).tobytes(),
                                                      digest_size=16).digest())
    if isinstance(obj, (tuple, list)):
        return tuple(fingerprint(o) for o in obj)
    if isinstance(obj, dict):
        return tuple(sorted((k, fingerprint(v)) for k, v in obj.items()))
    if type(obj).__name__ == "Discretization":
        # its content is a pure function of (kernel, grid)
        return ("Discretization", fingerprint(obj.kernel), fingerprint(obj.grid))
    if is_dataclass(obj):
        return (type(obj).__name__,) + tuple(fingerprint(getattr(obj, f.name)) for f in fields(obj))
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return (type(obj).__name__,) + fingerprint(sorted(vars(obj).items()))


class Tracer:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")
        self.flags = array("i")
        self._stack: list[int] = []
        self._seen: dict[int, set] = {}
        self._restore: list = []

    def _id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name: str, kind, is_method: bool):
        name_id = self._id(name)
        stack, clock = self._stack, time.perf_counter
        spans_name, spans_parent = self.name, self.parent
        spans_start, spans_end = self.start, self.end
        spans_aux, spans_flags = self.aux, self.flags
        seen = self._seen.setdefault(name_id, set())

        def traced(*args, **kwargs):
            flags = 0
            sid = name_id
            if kind in ("fp", "slice"):
                key = fingerprint((args[1:] if is_method else args, kwargs))
                if key in seen:
                    flags |= REPEAT
                else:
                    seen.add(key)
            elif kind == "by_kernel":
                sid = self._id(f"{name}.{_kernel_type(args[0])}")
            counted = None
            if kind == "fevals":
                f, counted = args[0], [0]

                def f_counted(*a, _f=f, _n=counted):
                    _n[0] += 1
                    return _f(*a)
                args = (f_counted,) + args[1:]
            i = len(spans_start)
            spans_name.append(sid)
            spans_parent.append(stack[-1] if stack else -1)
            spans_aux.append(0.0)
            spans_flags.append(flags)
            spans_end.append(0.0)
            stack.append(i)
            spans_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans_end[i] = clock()
                stack.pop()
                if kind == "slice" and "budget exhausted" in str(exc):
                    spans_flags[i] = flags | BUDGET
                if counted is not None:
                    spans_aux[i] = counted[0]
                raise
            spans_end[i] = clock()
            stack.pop()
            if kind == "slice":
                spans_aux[i] = result.iterations
                if result.iterations == 0:
                    spans_flags[i] = flags | SHORTCUT
            elif kind == "quad":
                spans_aux[i] = result.evaluations
            elif counted is not None:
                spans_aux[i] = counted[0]
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        import bcsgap  # noqa: F401  (loads every submodule)
        mods = {k: v for k, v in sys.modules.items()
                if k == "bcsgap" or k.startswith("bcsgap.")}
        for module, attr, kind in TARGETS:
            owner = mods[f"bcsgap.{module}"]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            # a constructor's span is named after its class
            name = f"{module}.{attr.removesuffix('.__init__')}"
            wrapped = self._wrap(original, name, kind, len(path) > 1)
            if len(path) > 1:  # method: patch the class once
                self._patch(owner, path[-1], original, wrapped)
                continue
            for m in mods.values():
                if getattr(m, path[-1], None) is original:
                    self._patch(m, path[-1], original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 aux=np.frombuffer(self.aux, dtype=np.float64),
                 flags=np.frombuffer(self.flags, dtype=np.int32))


def _kernel_type(kernel) -> str:
    if kernel.is_constant:
        return "constant"
    return "separable" if kernel.is_separable else "tabulated"


# ------------------------------------------------------------ aggregation

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "gap_solver.solve_at_T.calls": "count",
    "gap_solver.solve_at_T.iterations": "count",
    "gap_solver.solve_at_T.self_s": "s",
    "gap_solver.solve_at_T.us_per_iteration": "us",
    "gap_solver.solve_at_T.shortcut_frac": "1",
    "gap_solver.solve_at_T.repeat_frac": "1",
    "gap_solver.solve_at_T.budget_exhausted": "count",
    "gap_solver.Discretization.kernel_apply.calls": "count",
    "gap_solver.Discretization.kernel_apply.s": "s",
    "interpolate.pchip_slopes.calls": "count",
    "interpolate.pchip_slopes.s": "s",
    "interpolate.pchip_eval_prepared.s": "s",
    "thermo.extract_v.s": "s",
    "simple_gap.solve_simple_gap.calls": "count",
    "simple_gap.solve_simple_gap.repeat_frac": "1",
    "simple_gap.solve_simple_gap.s": "s",
    "rootfind.solve_bracketed.calls": "count",
    "rootfind.solve_bracketed.fevals": "count",
    "rootfind.solve_bracketed.self_s": "s",
    "quadrature.integrate.calls": "count",
    "quadrature.integrate.evals": "count",
    "quadrature.integrate.self_s": "s",
    "quadrature.composite_gauss.calls": "count",
    "interpolate.MonotoneCubic.builds": "count",
    "gap_solver.Discretization.builds": "count",
    "gap_solver.Discretization.repeat_frac": "1",
    "gap_solver.Discretization.s": "s",
    "gap_solver.du_dT_at_fixed_point.calls": "count",
    "gap_solver.du_dT_at_fixed_point.s": "s",
    "thermo.omega_normal.s": "s",
    "thermo.cv_normal.s": "s",
    "thermo.psi.s": "s",
    "thermo.build_thermo_curve.self_s": "s",
    "critical_field.build_hc_curve.self_s": "s",
    "model.eval_dos.calls": "count",
    "model.eval_dos.s": "s",
    "config.load_config.s": "s",
    "simple_gap.solve_tau.calls": "count",
    "simple_gap.solve_tau0.s": "s",
    "gap_solver.Discretization.spectral_radius.calls": "count",
    "gap_solver.Discretization.spectral_radius.s": "s",
    "gap_solver.find_Tc.constant.s": "s",
    "gap_solver.find_Tc.separable.s": "s",
    "gap_solver.find_Tc.tabulated.s": "s",
    **{f"cli.{sub}.s": "s" for sub in
       ("tc", "gap", "simple-gap", "thermo", "diagnose", "ratio", "hc")},
    "cli.main.self_s": "s",
    "trace.overhead_frac": "1",
}


def load_spans(path: str) -> dict:
    with np.load(path) as z:
        spans = {k: z[k] for k in ("name", "parent", "start", "end", "aux", "flags")}
        spans["names"] = json.loads(str(z["names"]))
    return spans


def nesting_violations(spans: dict) -> int:
    """Spans that start before or end after their parent span."""
    p = spans["parent"]
    has = p >= 0
    pp = p[has]
    return int(np.sum((spans["start"][has] < spans["start"][pp])
                      | (spans["end"][has] > spans["end"][pp])
                      | (spans["end"][has] < spans["start"][has])))


def summarize(span_sets: list, overhead_frac: float) -> dict:
    """Per-layer metrics from the span files of one traced pass."""
    calls, total, self_t, aux, flagged = {}, {}, {}, {}, {}
    per_sub: dict[str, list] = {}
    cli_self = 0.0
    for spans in span_sets:
        names = spans["names"]
        name, parent = spans["name"], spans["parent"]
        dur = spans["end"] - spans["start"]
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        own = dur - child
        for nid, label in enumerate(names):
            m = name == nid
            if not m.any():
                continue
            calls[label] = calls.get(label, 0) + int(m.sum())
            total[label] = total.get(label, 0.0) + float(dur[m].sum())
            self_t[label] = self_t.get(label, 0.0) + float(own[m].sum())
            aux[label] = aux.get(label, 0.0) + float(spans["aux"][m].sum())
            fl = spans["flags"][m]
            for bit in (REPEAT, SHORTCUT, BUDGET):
                flagged[(label, bit)] = flagged.get((label, bit), 0) + int(np.sum(fl & bit > 0))
            short = label.split(".")[-1]
            if label.startswith("cli."):
                cli_self += float(own[m].sum())
                if short in SUBCOMMANDS:
                    per_sub.setdefault(SUBCOMMANDS[short], []).extend(dur[m].tolist())

    def c(label):
        return calls.get(label, 0)

    def frac(label, bit):
        return flagged.get((label, bit), 0) / c(label) if c(label) else 0.0

    out = {}
    for metric in LAYER_METRICS:
        label, stat = metric.rsplit(".", 1)
        if label.startswith("cli.") and stat == "s":
            xs = per_sub.get(label[4:], [])
            out[metric] = statistics.median(xs) if xs else 0.0
        elif metric == "cli.main.self_s":
            out[metric] = cli_self
        elif metric == "trace.overhead_frac":
            out[metric] = overhead_frac
        elif stat in ("calls", "builds"):
            out[metric] = c(label)
        elif stat == "s":
            out[metric] = total.get(label, 0.0)
        elif stat == "self_s":
            out[metric] = self_t.get(label, 0.0)
        elif stat in ("iterations", "evals", "fevals"):
            out[metric] = int(aux.get(label, 0.0))
        elif stat == "us_per_iteration":
            it = aux.get(label, 0.0)
            out[metric] = 1e6 * total.get(label, 0.0) / it if it else 0.0
        elif stat == "shortcut_frac":
            out[metric] = frac(label, SHORTCUT)
        elif stat == "repeat_frac":
            out[metric] = frac(label, REPEAT)
        elif stat == "budget_exhausted":
            out[metric] = flagged.get((label, BUDGET), 0)
        else:
            raise KeyError(metric)
    return out
