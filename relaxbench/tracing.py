"""Spans around the calls into each relaxkit layer, installed at run time.

``Tracer.install`` wraps the functions listed in ``SPANS`` and rebinds every
module attribute of ``relaxkit.*`` that refers to one of them (callers look
functions up by module attribute, including names imported with ``from ..
import``), so nothing in the program changes.  ``uninstall`` restores the
originals.  Spans stay in memory as per-name aggregates: call count, total
time and self time (the span minus its child spans).

Layers, as the README maps them: L3 ``cli``; L2 ``fitio``, ``verify``,
``laplace``, ``kernels``; L1 ``models``; L0 ``specfun``, ``inversion``,
``quadrature``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); "Class.method" wraps a method
SPANS = (
    ("relaxkit.cli", "main", "cli.main"),
    ("relaxkit.fitio", "fit", "fitio.fit"),
    ("relaxkit.fitio", "parse_csv", "fitio.parse_csv"),
    ("relaxkit.fitio", "synthesize", "fitio.synthesize"),
    ("relaxkit.fitio", "_levenberg_marquardt", "fitio.levenberg_marquardt"),
    ("relaxkit.fitio", "_jacobian", "fitio.jacobian"),
    ("relaxkit.fitio", "_Problem.residuals", "fitio.residuals"),
    ("relaxkit.laplace", "efros_compose", "laplace.efros_compose"),
    ("relaxkit.laplace", "subordination_pdf", "laplace.subordination_pdf"),
    ("relaxkit.laplace", "subordination_kernel", "laplace.subordination_kernel"),
    ("relaxkit.kernels", "memory_time_with_bound", "kernels.memory_time_with_bound"),
    ("relaxkit.kernels", "_series_sum", "kernels.series_sum"),
    ("relaxkit.kernels", "evolution_residual", "kernels.evolution_residual"),
    ("relaxkit.models", "relaxation", "models.relaxation"),
    ("relaxkit.models", "response", "models.response"),
    ("relaxkit.models", "permittivity", "models.permittivity"),
    ("relaxkit.specfun", "prabhakar_eval", "specfun.prabhakar_eval"),
    ("relaxkit.specfun", "_series", "specfun.series"),
    ("relaxkit.specfun", "_kummer", "specfun.kummer"),
    ("relaxkit.specfun", "_contour", "specfun.contour"),
    ("relaxkit.specfun", "_asymptotic", "specfun.asymptotic"),
    ("relaxkit.specfun", "levy_stable_density", "specfun.levy_stable_density"),
    ("relaxkit.inversion", "talbot", "inversion.talbot"),
    ("relaxkit.quadrature", "tanh_sinh", "quadrature.tanh_sinh"),
)

VERIFY_SUITES = (
    "sonine", "duality", "pdf", "subordination", "cm", "asymptotics", "figures", "mixture",
    "evolution",
)

# (metric, unit, better) of every per-layer metric the traced run prints
PER_LAYER = (
    [(f"specfun.{n}.{m}", u, "lower")
     for n in ("prabhakar_eval", "series", "kummer", "contour", "asymptotic")
     for m, u in (("calls", "count"), ("self_us", "us"))]
    + [
        ("specfun.double_eval_share", "share", "lower"),
        ("inversion.talbot.calls", "count", "lower"),
        ("inversion.talbot.self_us", "us", "lower"),
    ]
    + [(f"models.{n}.{m}", u, "lower")
       for n in ("relaxation", "response", "permittivity")
       for m, u in (("calls", "count"), ("self_us", "us"))]
    + [
        ("kernels.memory_time_with_bound.calls", "count", "lower"),
        ("kernels.memory_time_with_bound.self_us", "us", "lower"),
        ("kernels.series_terms_per_point", "count", "lower"),
        ("kernels.truncation_warnings", "count", "lower"),
        ("kernels.evolution_residual.self_ms", "ms", "lower"),
        ("laplace.efros_compose.calls", "count", "lower"),
        ("laplace.efros_compose.self_ms", "ms", "lower"),
        ("laplace.subordination_pdf.calls", "count", "lower"),
        ("laplace.subordination_pdf.self_us", "us", "lower"),
        ("laplace.subordination_kernel.calls", "count", "lower"),
        ("specfun.levy_stable_density.calls", "count", "lower"),
        ("specfun.levy_stable_density.self_us", "us", "lower"),
        ("quadrature.tanh_sinh.calls", "count", "lower"),
        ("quadrature.tanh_sinh.self_us", "us", "lower"),
        ("quadrature.tanh_sinh.evals_per_call", "count", "lower"),
        ("fitio.fit.calls", "count", "lower"),
        ("fitio.lm_iterations_per_fit", "count", "lower"),
        ("fitio.model_evals_per_fit", "count", "lower"),
        ("fitio.jacobian_evals_share", "share", "lower"),
        ("fitio.rejected_trial_share", "share", "lower"),
        ("fitio.parse_csv.self_us", "us", "lower"),
        ("fitio.synthesize.ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.main.self_us", "us", "lower"),
        ("cli.eval_subprocess_ms", "ms", "lower"),
    ]
    + [(f"verify.{s}.ms", "ms", "lower") for s in VERIFY_SUITES]
    + [("trace.overhead_share", "share", "lower")]
)


class _CountingWarnings:
    """Stand-in for the ``warnings`` module inside ``relaxkit.kernels``: counts TruncationWarnings."""

    def __init__(self, tracer, real):
        self._tracer = tracer
        self._real = real

    def warn(self, message, category=UserWarning, stacklevel=1, **kwargs):
        if category.__name__ == "TruncationWarning":
            self._tracer.counts["truncation_warnings"] += 1
        self._real.warn(message, category, stacklevel + 1, **kwargs)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Aggregated spans plus the counters that the ratio metrics need."""

    def __init__(self):
        self.stack = []
        self.reset()
        self._bindings = []

    def reset(self) -> None:
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()

    # -- hooks: called with the span's frame [name, child_time, state] ------

    def _enclosing(self, name):
        for frame in reversed(self.stack):
            if frame[0] == name:
                return frame
        return None

    def _mark_strategy(self, frame, args, kwargs):
        outer = self._enclosing("specfun.prabhakar_eval")
        if outer is not None:
            outer[2] = (outer[2] or 0) | (1 if frame[0] == "specfun.series" else 2)
        return args, kwargs

    def _count_strategies(self, frame, result):
        if frame[2] == 3:
            self.counts["double_eval"] += 1

    def _count_integrand(self, frame, args, kwargs):
        f = args[0]
        counts = self.counts

        def counted(x):
            counts["tanh_sinh_evals"] += 1
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    def _count_terms(self, frame, args, kwargs):
        term_fn = args[2]
        counts = self.counts

        def counted(r):
            counts["series_terms"] += 1
            return term_fn(r)

        return tuple(args[:2]) + (counted,) + tuple(args[3:]), kwargs

    def _count_iterations(self, frame, result):
        self.counts["lm_iterations"] += result.iterations

    def _classify_residuals(self, frame, result):
        parent = self.stack[-1] if self.stack else None
        if parent is None:
            return
        if parent[0] == "fitio.jacobian":
            self.counts["jacobian_evals"] += 1
        elif parent[0] == "fitio.levenberg_marquardt":
            cost = float(result @ result)
            if parent[2] is None:
                parent[2] = cost  # the starting point, not a trial
                return
            self.counts["trials"] += 1
            if cost == cost and cost <= parent[2]:
                parent[2] = cost
            else:
                self.counts["rejected_trials"] += 1

    _HOOKS = {
        "specfun.series": (_mark_strategy, None),
        "specfun.contour": (_mark_strategy, None),
        "specfun.prabhakar_eval": (None, _count_strategies),
        "quadrature.tanh_sinh": (_count_integrand, None),
        "kernels.series_sum": (_count_terms, None),
        "fitio.levenberg_marquardt": (None, _count_iterations),
        "fitio.residuals": (None, _classify_residuals),
    }

    def _wrap(self, name, fn, method: bool):
        before, after = self._HOOKS.get(name, (None, None))
        stack, calls, total, self_time = self.stack, self.calls, self.total, self.self_time
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, None]
            if before is not None:
                head, rest = (args[:1], args[1:]) if method else ((), args)
                rest, kwargs = before(tracer, frame, rest, kwargs)
                args = tuple(head) + tuple(rest)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(tracer, frame, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._bindings:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "relaxkit" or n.startswith("relaxkit.")) and m is not None]
        for module_name, attr, span in SPANS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._bind(cls, meth, original, self._wrap(span, original, method=True))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span, original, method=False)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._bind(m, name, original, wrapped)
        kernels = sys.modules["relaxkit.kernels"]
        self._bind(kernels, "warnings", kernels.warnings, _CountingWarnings(self, kernels.warnings))

    def _bind(self, owner, name, original, replacement) -> None:
        setattr(owner, name, replacement)
        self._bindings.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings = []

    # -- per-layer metrics ------------------------------------------------

    def per_call(self, name: str, scale: float) -> float:
        n = self.calls[name]
        return self.self_time[name] / n * scale if n else 0.0

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics of ``rounds`` traced rounds (counts are per round)."""
        c, k = self.calls, self.counts

        def share(num, den):
            return num / den if den else 0.0

        out = {}
        for name in ("specfun.prabhakar_eval", "specfun.series", "specfun.kummer",
                     "specfun.contour", "specfun.asymptotic", "inversion.talbot",
                     "models.relaxation", "models.response", "models.permittivity",
                     "kernels.memory_time_with_bound", "laplace.subordination_pdf",
                     "specfun.levy_stable_density", "quadrature.tanh_sinh"):
            out[f"{name}.calls"] = c[name] / rounds
            out[f"{name}.self_us"] = self.per_call(name, 1e6)
        out["specfun.double_eval_share"] = share(k["double_eval"], c["specfun.prabhakar_eval"])
        out["kernels.series_terms_per_point"] = share(k["series_terms"], c["kernels.series_sum"])
        out["kernels.truncation_warnings"] = k["truncation_warnings"] / rounds
        out["kernels.evolution_residual.self_ms"] = self.per_call("kernels.evolution_residual", 1e3)
        out["laplace.efros_compose.calls"] = c["laplace.efros_compose"] / rounds
        out["laplace.efros_compose.self_ms"] = self.per_call("laplace.efros_compose", 1e3)
        out["laplace.subordination_kernel.calls"] = c["laplace.subordination_kernel"] / rounds
        out["quadrature.tanh_sinh.evals_per_call"] = share(k["tanh_sinh_evals"], c["quadrature.tanh_sinh"])
        lm = c["fitio.levenberg_marquardt"]
        out["fitio.fit.calls"] = c["fitio.fit"] / rounds
        out["fitio.lm_iterations_per_fit"] = share(k["lm_iterations"], lm)
        out["fitio.model_evals_per_fit"] = share(c["fitio.residuals"], lm)
        out["fitio.jacobian_evals_share"] = share(k["jacobian_evals"], c["fitio.residuals"])
        out["fitio.rejected_trial_share"] = share(k["rejected_trials"], k["trials"])
        out["fitio.parse_csv.self_us"] = self.per_call("fitio.parse_csv", 1e6)
        out["cli.main.self_us"] = self.per_call("cli.main", 1e6)
        return out

    def dump(self) -> dict:
        """All span aggregates, for the trace file."""
        return {
            name: {"calls": self.calls[name], "total_s": self.total[name],
                   "self_s": self.self_time[name]}
            for name in sorted(self.calls)
        } | {"counters": dict(self.counts)}
