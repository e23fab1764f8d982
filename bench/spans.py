"""In-memory span recorder for the traced benchmark run.

Wraps the public functions of each cohercause module at every name a
module binds them to (``cohercause.experiments.gen_barnett``,
``cohercause.inference.partial_coherence``, ...), so calls made from
inside the package are recorded too. No file of the package changes.

Each call becomes one span: wall and CPU duration, the time its child
spans covered (so self time is duration minus that), an optional exact
count of the work it did, and whether it raised. Spans stay in memory
and are summarised once, when the repetition ends.
"""
from __future__ import annotations

import functools
import os
import sys
import time

# Public functions traced per layer. The CSV/JSON writers of the
# experiments module are deliberately left out: their cost shows up as
# the self time of the cli layer, which is where a user-facing output
# format lives.
LAYERS = {
    "cli": ("main",),
    "inference": (
        "read_sequence_csv", "lag_embed", "sample_covariance",
        "likelihood_ratio", "test_causal_influence",
    ),
    "coherence": ("partial_coherence",),
    "covariance": ("conditional_covariances",),
    "nulldist": ("sample_null", "critical_value"),
    "simulate": (
        "gen_barnett", "gen_ma_case", "write_sequence_csv", "analytic_covariances",
        "model_composite_covariance", "lag_window_covariance",
    ),
    "experiments": ("coherence_map", "calibrate_size", "power_curve"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Exact work counts, taken from argument and result shapes ("computed").
_WORK = {
    "inference.read_sequence_csv": lambda a, k, res: res["t"].size,
    "simulate.write_sequence_csv": lambda a, k, res: _arg(a, k, 1, "x").size,
    "inference.lag_embed": lambda a, k, res: res.data.nbytes,
    "inference.sample_covariance": lambda a, k, res: (
        2 * _arg(a, k, 0, "panel").dims.total ** 2 * _arg(a, k, 0, "panel").M
    ),
    "nulldist.sample_null": lambda a, k, res: _arg(a, k, 1, "n"),
    "simulate.gen_barnett": lambda a, k, res: res[0].size,
    "simulate.gen_ma_case": lambda a, k, res: res[0].size,
    "experiments.power_curve": lambda a, k, res: sum(pt.replications for pt in res),
    "experiments.calibrate_size": lambda a, k, res: res.replications,
    "experiments.coherence_map": lambda a, k, res: res.values.size,
}


def _count(work, args, kwargs, result) -> int:
    """The work count of one call; 0 when the call's shapes are not the expected ones."""
    try:
        return work(args, kwargs, result)
    except (AttributeError, KeyError, IndexError, TypeError):
        return 0


def _cpu() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    """Records one span per call of every function in ``LAYERS``."""

    def __init__(self) -> None:
        # name, wall, self wall, cpu, work, raised
        self.spans: list[tuple[str, float, float, float, int, bool]] = []
        self._child_time: list[float] = []

    def install(self) -> None:
        """Replace each traced function wherever a cohercause module binds it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "cohercause"]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"cohercause.{layer}")
            for fname in names:
                # A function a later version renamed or removed reads as not called.
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        work = _WORK.get(name)
        spans = self.spans
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            c0 = _cpu()
            t0 = time.perf_counter()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                wall = time.perf_counter() - t0
                cpu = _cpu() - c0
                children = child_time.pop()
                if child_time:
                    child_time[-1] += wall
                n = _count(work, args, kwargs, result) if work and not raised else 0
                spans.append((name, wall, wall - children, cpu, n, raised))

        return traced

    def summary(self) -> dict:
        """Per-function totals plus the per-call times of partial_coherence."""
        funcs: dict[str, dict] = {}
        per_call: list[float] = []
        for name, wall, self_wall, cpu, work, raised in self.spans:
            f = funcs.setdefault(
                name, {"calls": 0, "wall": 0.0, "self": 0.0, "cpu": 0.0, "work": 0, "errors": 0}
            )
            f["calls"] += 1
            f["wall"] += wall
            f["self"] += self_wall
            f["cpu"] += cpu
            f["work"] += work
            f["errors"] += raised
            if name == "coherence.partial_coherence":
                per_call.append(wall)
        return {"functions": funcs, "partial_coherence_calls_s": per_call}
