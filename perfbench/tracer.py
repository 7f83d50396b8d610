"""Span recorder for the traced run, installed inside a benchmark worker.

``install()`` rebinds the public functions of each layer in every circleact
module that looks them up at call time (for example
``circleact.classifier.im_j_order`` or ``circleact.gradedtop.smith_normal_form``)
and the ``BernoulliTable.value`` method.  Each wrapper appends a span
``[name, start, end, parent, note]`` to an in-memory list; ``parent`` is
the index of the enclosing span within the same request, or -1.  The
worker sends a request's spans back with its reply, so the spans of a
worker killed for budget are lost with it.  Nothing is changed when the
recorder is not installed.
"""

from __future__ import annotations

from time import perf_counter

import circleact
import circleact.cli
from circleact import bernoulli, classifier, genus, gradedtop

# (module that defines the function, attribute, span name, note on the call)
TRACED = [
    (classifier, "classify", "classifier.classify", None),
    (classifier, "required_divisor", "classifier.required_divisor", None),
    (bernoulli, "im_j_order", "bernoulli.im_j_order", None),
    (bernoulli, "table_rows", "bernoulli.table_rows", None),
    (genus, "multiplicative_sequence", "genus.multiplicative_sequence",
     lambda args, result, _: len(result.items())),  # terms produced
    (genus, "alpha", "genus.alpha", None),
    (gradedtop, "smith_normal_form", "gradedtop.smith_normal_form",
     lambda args, result, _: args[0].rows * args[0].cols),  # entries in
    (gradedtop, "gysin_total_space", "gradedtop.gysin_total_space", None),
]

CALLERS = (circleact, circleact.cli, classifier, bernoulli, genus, gradedtop)


class Recorder:
    """Spans of the current request, innermost open span on top of the stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name, fn, note=None, before=None):
        """``fn`` recording a span per call; ``note(args, result, state)``
        fills the span's note, with ``state = before(args)`` taken just
        before the call."""
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            state = before(args) if before else None
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if note:
                rec[4] = note(args, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def take(self) -> list[list]:
        out = self.spans[:]
        del self.spans[:]
        return out


def install() -> Recorder:
    rec = Recorder()
    for module, attr, name, note in TRACED:
        original = getattr(module, attr)
        wrapped = rec.wrap(name, original, note)
        for caller in CALLERS:
            if getattr(caller, attr, None) is original:
                setattr(caller, attr, wrapped)
    table = bernoulli.BernoulliTable
    # note: [max_index before the call, max_index after]; a fill raised it
    table.value = rec.wrap(
        "bernoulli.BernoulliTable.value", table.value,
        note=lambda args, result, before: [before, args[0].max_index],
        before=lambda args: args[0].max_index,
    )
    return rec
