"""Curve algebra: combinators over event models."""

from __future__ import annotations

from typing import Callable, Optional

from .base import EventModel
from .staircase import StaircaseKernel, integral_kernel, merge_tightest


class _LambdaModel(EventModel):
    """Internal: wrap delta functions into an :class:`EventModel`.

    The combinators pass the composed staircase kernel along when both
    operands have one, keeping the algebra closed under the compiled
    ``eta_plus`` machinery; without it the generic search applies.
    """

    def __init__(
        self,
        dmin: Callable[[int], float],
        dplus: Callable[[int], float],
        label: str,
        kernel: Optional[StaircaseKernel] = None,
    ):
        self._dmin = dmin
        self._dplus = dplus
        self._label = label
        self._kernel = kernel

    def delta_minus(self, k: int) -> float:
        return self._dmin(k)

    def delta_plus(self, k: int) -> float:
        return self._dplus(k)

    def _compile_kernel(self) -> Optional[StaircaseKernel]:
        return self._kernel

    def __repr__(self) -> str:
        return self._label


def scaled(model: EventModel, factor: float) -> EventModel:
    """Stretch time by ``factor`` (> 1 makes the stream sparser)."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    # The composed kernel is only sound when its tail arithmetic
    # reproduces the scaled model's own delta_minus exactly: integral
    # staircase times an integer factor.  Anything else (fractional
    # factors, float curves) keeps the generic search, which consults
    # the authoritative delta_minus directly.
    kernel = None
    base_kernel = model.staircase_kernel()
    if integral_kernel(base_kernel) and float(factor).is_integer():
        kernel = base_kernel.scaled(factor)
    return _LambdaModel(
        lambda k: model.delta_minus(k) * factor,
        lambda k: model.delta_plus(k) * factor,
        f"scaled({model!r}, {factor!r})",
        kernel=kernel,
    )


def tightest(model_a: EventModel, model_b: EventModel) -> EventModel:
    """The most constrained model consistent with both inputs.

    ``delta_minus`` is the point-wise maximum (events must honour both
    spacing constraints) and ``delta_plus`` the point-wise minimum.
    """
    return _LambdaModel(
        lambda k: max(model_a.delta_minus(k), model_b.delta_minus(k)),
        lambda k: min(model_a.delta_plus(k), model_b.delta_plus(k)),
        f"tightest({model_a!r}, {model_b!r})",
        kernel=merge_tightest(
            model_a.staircase_kernel(), model_b.staircase_kernel()
        ),
    )
