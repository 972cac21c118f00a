"""Activation models (arrival curves) for task chains.

Public surface:

* :class:`EventModel` — abstract base (``eta_plus``, ``eta_minus``,
  ``delta_minus``, ``delta_plus``, ``rate``, ``validate``)
* :class:`PeriodicModel` — period / jitter / min-distance
* :class:`SporadicModel` — minimum inter-arrival only
* :class:`SporadicBurstModel` — bursty two-level sporadic
* :class:`ArrivalCurve` — explicit staircase (trace-derived) curves
* :class:`StaircaseKernel` — compiled breakpoint/value staircase behind
  every model's ``eta_plus`` and batched ``delta_minus_many``
* :mod:`repro.arrivals.algebra` — curve combinators
"""

from .base import EventModel
from .curve import ArrivalCurve
from .periodic import PeriodicModel
from .sporadic import SporadicBurstModel, SporadicModel
from .staircase import StaircaseKernel

__all__ = [
    "EventModel",
    "PeriodicModel",
    "SporadicModel",
    "SporadicBurstModel",
    "ArrivalCurve",
    "StaircaseKernel",
]
