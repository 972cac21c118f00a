"""Numeric paths of the library.

Each layer has one fixed numeric path, picked by end-to-end
measurement: the analysis (arrival curves, the Theorem 1 fixed points,
the Def. 10 check and the Theorem 3 packing ILP) runs in pure Python,
whose per-call cost beats numpy on the small vectors these analyses
evaluate; the simulator's event calendar (:mod:`repro.sim.calendar`)
runs on numpy, which pays off at soak scale.  :func:`kernel_name`
names that combination for environment reports.

The analysis' fixed points are scalar Kleene iterations, one ``q`` at
a time: the Theorem 1 busy times in
:mod:`repro.analysis.busy_window`, the Def. 10 re-check in
:mod:`repro.analysis.twca` and the response-time baseline in
:mod:`repro.baselines.rta`.
"""

from __future__ import annotations

#: The numeric paths of this build (see the module docstring).
KERNEL = "python-analysis+numpy-sim"


def kernel_name() -> str:
    """The numeric paths of this build, for environment reports."""
    return KERNEL
