"""One float summation order for every supported interpreter.

Since Python 3.12 the built-in :func:`sum` adds floats with compensated
(Neumaier) summation, so the same terms can give a total that differs in
its last bits from 3.9-3.11.  Every float total that reaches a cost, a
temperature, an :class:`~repro.mapping.engine.Evaluation` field, a
persisted envelope or a printed paper table goes through
:func:`left_sum`, which keeps the older order; :func:`sum` stays only for
integers.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """Sum from ``0``, adding left to right: ``sum()``'s result up to
    Python 3.11, on every interpreter (``0`` for no terms)."""
    return reduce(add, values, 0)
