"""Spans around the package's public callables, recorded from outside.

:class:`Tracer` replaces each callable where its caller looks it up (a
module attribute or a class attribute) with a wrapper that records a span:
name, parent span, start and end. Spans stay in memory until
:meth:`Tracer.write` at the end of the run. Nothing inside the package
changes; :meth:`Tracer.close` puts every original back.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

from catkg import attention, kg, tensor, trainer


def _score_name(args, kwargs):
    training = kwargs.get("training", args[3] if len(args) > 3 else False)
    return "kg.score.train" if training else "kg.score.eval"


def _evaluate_name(args, kwargs):
    split = kwargs.get("split", args[2] if len(args) > 2 else None)
    return f"kg.evaluate.{split}"


# (owner, attribute, span name or namer, extra) for every wrapped callable.
# ``extra`` is recorded with the span at entry.
TARGETS = (
    (kg, "load_triples", "kg.load_triples", None),
    (kg.KgModel, "__init__", "kg.model_init", None),
    (trainer, "load_model", "trainer.load_model", None),
    (trainer, "train", "trainer.train", None),
    (kg.KgModel, "score", _score_name, None),
    (attention.CatBlock, "forward", "attention.block_fwd", None),
    (attention.EuclideanBranch, "__call__", "attention.euclidean_fwd", None),
    (attention.HyperbolicBranch, "__call__", "attention.hyperbolic_fwd", None),
    (attention.SphericalBranch, "__call__", "attention.spherical_fwd", None),
    (attention.Router, "__call__", "attention.router_fwd", None),
    (trainer, "smoothed_ce_loss", "kg.loss_fwd", None),
    (tensor.Tape, "backward", "tensor.backward", lambda args: len(args[0])),
    (trainer.AdamW, "step", "trainer.adamw", None),
    (trainer, "evaluate", _evaluate_name, None),
    (kg, "evaluate", _evaluate_name, None),
    (kg, "filtered_rank", "kg.filtered_rank", None),
)


class Tracer:
    """Records nested spans of wrapped calls; single-threaded."""

    def __init__(self):
        # Each span: [name, parent index or -1, start s, end s, extra].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, extra in TARGETS:
            self._wrap(owner, attr, name, extra)
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _wrap(self, owner, attr, name, extra) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        spans, stack = self.spans, self._stack
        namer = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            span = [namer(args, kwargs), stack[-1] if stack else -1, 0.0, 0.0,
                    extra(args) if extra else None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        setattr(owner, attr, timed)
        self._undo.append((owner, attr, original))

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One TAB-separated line per span: id, parent, name, start, ms."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ms\tdur_ms\textra\n")
            for i, (name, parent, start, end, extra) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{(start - t0) * 1e3:.3f}\t"
                         f"{(end - start) * 1e3:.4f}\t"
                         f"{'' if extra is None else extra}\n")


def _median(values):
    return statistics.median(values) if values else float("nan")


def _percentile(values, q):
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer figures from one traced session.

    Layer times are medians per call. Spans inside a training-mode score
    give the ``attention.*`` figures; eval-mode forwards fall under
    ``kg.score_eval_ms``. Step intervals run between consecutive
    ``AdamW.step`` returns inside one epoch.
    """
    child_ms = [0.0] * len(spans)
    mode = [None] * len(spans)
    for i, (name, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3
            mode[i] = mode[parent]
        if name.startswith("kg.score."):
            mode[i] = name

    def durations(name, want_mode=None, self_time=False):
        out = []
        for i, (n, _, start, end, _) in enumerate(spans):
            if n == name and (want_mode is None or mode[i] == want_mode):
                ms = (end - start) * 1e3
                out.append(ms - child_ms[i] if self_time else ms)
        return out

    steps, coverage = [], []
    last = None
    for i, (name, parent, start, end, _) in enumerate(spans):
        if name == "trainer.train" or name.startswith("kg.evaluate."):
            last = None
        elif name == "trainer.adamw":
            if last is not None:
                interval = end - spans[last][3]
                covered = sum(e - s for _, p, s, e, _ in spans[last + 1:i + 1]
                              if p == parent)
                steps.append(interval * 1e3)
                coverage.append(covered / interval)
            last = i

    test_evals = {i for i, s in enumerate(spans) if s[0] == "kg.evaluate.test"}
    test_eval_s = [spans[i][3] - spans[i][2] for i in sorted(test_evals)]
    ranks = [(p, e - s) for n, p, s, e, _ in spans
             if n == "kg.filtered_rank" and p in test_evals]
    rank_calls = [sum(1 for p, _ in ranks if p == i) for i in sorted(test_evals)]

    train = "kg.score.train"
    return {
        "trainer.step_ms.p50": _median(steps),
        "trainer.step_ms.p90": _percentile(steps, 0.9),
        "trainer.step_ms.samples": len(steps),
        "trace.step_coverage": _median(coverage),
        "kg.score_ms": _median(durations(train)),
        "kg.score_self_ms": _median(durations(train, self_time=True)),
        "kg.score_eval_ms": _median(durations("kg.score.eval")),
        "kg.score_eval_self_ms": _median(
            durations("kg.score.eval", self_time=True)),
        "attention.block_fwd_ms": _median(
            durations("attention.block_fwd", train)),
        "attention.euclidean_fwd_ms": _median(
            durations("attention.euclidean_fwd", train)),
        "attention.hyperbolic_fwd_ms": _median(
            durations("attention.hyperbolic_fwd", train)),
        "attention.spherical_fwd_ms": _median(
            durations("attention.spherical_fwd", train)),
        "attention.router_fwd_ms": _median(
            durations("attention.router_fwd", train)),
        "kg.loss_fwd_ms": _median(durations("kg.loss_fwd")),
        "tensor.backward_ms": _median(durations("tensor.backward")),
        "tensor.tape_nodes": _median(
            [s[4] for s in spans if s[0] == "tensor.backward"]),
        "trainer.adamw_ms": _median(durations("trainer.adamw")),
        "kg.evaluate_s": _median(test_eval_s),
        "kg.filtered_rank_us": _median([s * 1e6 for _, s in ranks]),
        "kg.filtered_rank_calls": _median(rank_calls),
        "kg.filtered_rank_share": sum(s for _, s in ranks) / sum(test_eval_s)
        if test_eval_s else float("nan"),
        "kg.load_triples_s": _median(durations("kg.load_triples")) / 1e3,
        "trainer.load_model_s": _median(durations("trainer.load_model")) / 1e3,
        "kg.model_init_s": _median(durations("kg.model_init")) / 1e3,
    }
