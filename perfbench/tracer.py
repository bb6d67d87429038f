"""Outside-in tracer: wraps lcfield's public functions from the benchmark.

Each wrapped call records a span (name, start, end, parent span, op id).
Spans stay in memory and are written out when the run ends. Aggregates are
kept per function while the run goes:

* ``calls``: every call, recursive ones included;
* ``self_s``: span duration minus the part covered by child spans;
* ``busy_s``: duration of outermost spans only (a recursive call inside a
  call to the same function adds nothing);
* ``errors``: outermost spans that ended in an exception;
* ``terms_out``: total ``len(result.terms)`` of returned numbers.

Functions are patched wherever callers look them up: on the defining module,
on every lcfield module that imported the function by name, and, for
``LCNumber`` methods, on the class.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# Layer -> {metric name: [attribute names]}. Module-level functions are
# looked up on the module; names starting with "LCNumber." on the class.
TARGETS = {
    "number": {
        "mul": ["LCNumber.__mul__", "LCNumber.__rmul__"],
        "add": ["LCNumber.__add__", "LCNumber.__radd__", "LCNumber.__sub__",
                "LCNumber.__rsub__", "LCNumber.__neg__"],
        "inv": ["LCNumber.inv"],
        "nth_root": ["LCNumber.nth_root"],
        "pow_int": ["LCNumber.pow_int"],
        "compare": ["LCNumber.compare"],
        "parse": ["parse"],
        "render": ["render"],
    },
    "expr": {
        "parse": ["parse"],
        "eval_field": ["eval_field"],
        "eval_rational": ["eval_rational"],
        "transfer_check": ["transfer_check"],
    },
    "calculus": {
        "derivative": ["derivative"],
        "second_derivative": ["second_derivative"],
        "second_differential_check": ["second_differential_check"],
    },
    "shadows": {
        "conic_shadow": ["conic_shadow"],
        "conic_point": ["conic_point"],
        "conic_chain_residuals": ["conic_chain_residuals"],
    },
    "sequences": {
        "parse_sequence": ["parse_sequence"],
        "decompose": ["decompose"],
        "asymptotic_embed": ["asymptotic_embed"],
    },
    "cli": {"main": ["main"], "build_parser": ["build_parser"]},
    "svg": {"zoom_svg": ["zoom_svg"], "parabola_svg": ["parabola_svg"]},
}

TERMS_OUT = ("number.mul", "number.inv", "number.nth_root")
ERRORS = ("number.inv", "number.nth_root", "number.compare", "expr.eval_field")
# Classes of lcfield.errors counted once per raised instance, most specific first.
ERROR_CLASSES = ("UndecidableError", "NotAnNthPowerError", "ZeroDivisionLCError", "LCError")

_COUNTED = "_perfbench_counted"
# Spans kept for writing out; aggregates count every span regardless.
MAX_SPANS = 1_000_000


class _Stat:
    __slots__ = ("calls", "self_s", "busy_s", "errors", "terms_out")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.busy_s = 0.0
        self.errors = 0
        self.terms_out = 0


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]
        self.stats = {name: _Stat() for name in self.names}
        self.error_counts = {cls: 0 for cls in ERROR_CLASSES}
        self.spans: list = []
        self.dropped = 0
        self.op = -1
        self.tc_attempts = 0
        self.tc_kept = 0
        self.root_s = 0.0
        self._stack: list = []  # [name, start, child_time, span_index]
        self._active = {name: 0 for name in self.names}
        self._tc_lhs: list = []
        self._undo: list = []
        self._error_types: tuple = ()

    # -- patching ----------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Patch every target; `modules` maps layer name to module object."""
        errors = modules["errors"]
        self._error_types = tuple(getattr(errors, cls) for cls in ERROR_CLASSES)
        lc_modules = [m for n, m in sys.modules.items() if n == "lcfield" or n.startswith("lcfield.")]
        for layer, fns in TARGETS.items():
            mod = modules[layer]
            for fn, attrs in fns.items():
                name = f"{layer}.{fn}"
                for attr in attrs:
                    if attr.startswith("LCNumber."):
                        owner, key = mod.LCNumber, attr.split(".", 1)[1]
                        original = owner.__dict__[key]
                        self._set(owner, key, self._wrap(name, original))
                        continue
                    original = getattr(mod, attr)
                    wrapper = self._wrap(name, original)
                    for m in lc_modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._set(m, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        active = self._active
        spans = self.spans
        want_terms = name in TERMS_OUT
        is_tc = name == "expr.transfer_check"
        is_eval = name in ("expr.eval_field", "expr.eval_rational")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if is_eval and parent is not None and parent[0] == "expr.transfer_check" \
                    and args and args[0] is tracer._tc_lhs[-1]:
                tracer.tc_attempts += 1
            if is_tc:
                tracer._tc_lhs.append(args[0] if args else kwargs.get("lhs"))
            outermost = active[name] == 0
            active[name] += 1
            if len(spans) < MAX_SPANS:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                tracer.dropped += 1
            frame = [name, 0.0, 0.0, index]
            stack.append(frame)
            start = frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if outermost:
                    stat.errors += 1
                tracer._count_error(exc)
                raise
            else:
                if want_terms:
                    stat.terms_out += len(result.terms)
                if is_tc:
                    tracer.tc_kept += result.rational_trials + result.field_trials
                return result
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                if is_tc:
                    tracer._tc_lhs.pop()
                dur = end - start
                stat.calls += 1
                stat.self_s += dur - frame[2]
                if outermost:
                    stat.busy_s += dur
                if parent is not None:
                    parent[2] += dur
                else:
                    tracer.root_s += dur
                if index >= 0:
                    spans[index] = (name, start, end, parent[3] if parent else -1, tracer.op)

        return wrapper

    def _count_error(self, exc: BaseException) -> None:
        if getattr(exc, _COUNTED, False) or not isinstance(exc, self._error_types):
            return
        setattr(exc, _COUNTED, True)
        for cls, typ in zip(ERROR_CLASSES, self._error_types):
            if isinstance(exc, typ):
                self.error_counts[cls] += 1
                return

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.busy_s"] = st.busy_s
        for name in TERMS_OUT:
            st = self.stats[name]
            out[f"{name}.terms_out_mean"] = st.terms_out / st.calls if st.calls else 0.0
        for name in ERRORS:
            out[f"{name}.errors"] = self.stats[name].errors
        for cls, n in self.error_counts.items():
            out[f"errors.{cls}.raised"] = n
        out["expr.transfer_check.useful_ratio"] = (
            self.tc_kept / self.tc_attempts if self.tc_attempts else 0.0
        )
        return out

    def self_total(self) -> float:
        return sum(st.self_s for st in self.stats.values())

    def write(self, path: str) -> None:
        """Spans as tab-separated rows: op, index, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("op\tindex\tparent\tname\tstart\tend\n")
            fh.writelines(
                f"{s[4]}\t{i}\t{s[3]}\t{s[0]}\t{s[1]:.9f}\t{s[2]:.9f}\n"
                for i, s in enumerate(self.spans)
                if s is not None
            )
