"""Deadline miss models as first-class objects (Def. 1).

A :class:`DeadlineMissModel` wraps the ``dmm(k)`` function produced by
the TWCA (or by simulation, or by a baseline) and offers the standard
weakly-hard queries on top of it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class DeadlineMissModel:
    """A function ``dmm(k)`` bounding misses in ``k`` consecutive runs.

    Wraps any evaluator (analysis result, lookup table, simulation
    estimate) and enforces the Def. 1 sanity properties on access:
    results are clamped to ``[0, k]`` and memoized.
    """

    def __init__(
        self,
        evaluator: Callable[[int], int],
        name: str = "dmm",
        source: str = "analysis",
    ):
        self._evaluator = evaluator
        self.name = name
        self.source = source
        self._cache: Dict[int, int] = {}

    @classmethod
    def from_table(
        cls, table: Dict[int, int], name: str = "dmm", source: str = "table"
    ) -> "DeadlineMissModel":
        """Build from explicit ``{k: dmm(k)}`` samples; intermediate
        ``k`` values use the largest sampled ``k' <= k`` (valid because a
        DMM is non-decreasing).  The sample staircase is sorted once and
        answered by binary search."""
        if not table:
            raise ValueError("table must not be empty")
        samples = sorted(table.items())
        keys = [k for k, _ in samples]
        misses = [m for _, m in samples]

        def evaluate(k: int) -> int:
            index = bisect_right(keys, k)
            return 0 if index == 0 else misses[index - 1]

        return cls(evaluate, name=name, source=source)

    @classmethod
    def from_result(
        cls, result, name: Optional[str] = None, source: str = "twca"
    ) -> "DeadlineMissModel":
        """Wrap a :class:`~repro.analysis.twca.ChainTwcaResult` (or any
        object with ``dmm(k)`` and ``chain_name``): queries run through
        the result's per-``Omega`` packing memo, so staircase scans and
        weakly-hard checks share its solves."""
        return cls(
            result.dmm,
            name=name or f"dmm[{result.chain_name}]",
            source=source,
        )

    def __call__(self, k: int) -> int:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k not in self._cache:
            value = int(self._evaluator(k))
            self._cache[k] = max(0, min(k, value))
        return self._cache[k]

    # ------------------------------------------------------------------
    # Weakly-hard constraint queries
    # ------------------------------------------------------------------
    def satisfies_any_n_in_m(self, n: int, m: int) -> bool:
        """True iff at most ``n`` deadlines are missed in any window of
        ``m`` consecutive executions — the weakly-hard constraint written
        ``(n overbar, m)`` by Bernat et al."""
        if not 0 <= n <= m:
            raise ValueError(f"need 0 <= n <= m, got n={n}, m={m}")
        return self(m) <= n

    def satisfies_m_k(self, m: int, k: int) -> bool:
        """True iff at least ``m`` out of any ``k`` consecutive deadlines
        are met — the classic (m,k)-firm guarantee of Hamdaoui &
        Ramanathan."""
        if not 0 <= m <= k:
            raise ValueError(f"need 0 <= m <= k, got m={m}, k={k}")
        return self(k) <= k - m

    def miss_ratio_bound(self, k: int) -> float:
        """Upper bound on the miss ratio over windows of size ``k``."""
        return self(k) / k

    def first_violation(self, n: int, k_max: int = 10_000) -> Optional[int]:
        """Smallest window size whose miss bound exceeds ``n``; ``None``
        if no window up to ``k_max`` does.

        A DMM is non-decreasing (Def. 1), so the answer is found by
        galloping from ``k = 1`` and bisecting the bracketed staircase
        interval — ``O(log answer)`` evaluations, never probing far
        beyond the violation (an early violation costs a handful of
        small-``k`` probes even when the evaluator is expensive or
        undefined at large ``k``)."""
        if k_max < 1:
            return None
        lo, hi = 0, 1  # invariant once galloping stops: self(lo) <= n
        while hi < k_max and self(hi) <= n:
            lo = hi
            hi = min(2 * hi, k_max)
        if self(hi) <= n:
            return None
        index = bisect_right(range(lo + 1, hi), n, key=self)
        return lo + 1 + index

    def transitions(self, k_max: int) -> List[Tuple[int, int]]:
        """The staircase of the DMM: ``(k, dmm(k))`` at every k where the
        bound increases, up to ``k_max``."""
        points: List[Tuple[int, int]] = []
        previous = None
        for k in range(1, k_max + 1):
            value = self(k)
            if previous is None or value > previous:
                points.append((k, value))
                previous = value
        return points

    def table(self, ks: Iterable[int]) -> Dict[int, int]:
        """Evaluate over explicit window sizes."""
        return {k: self(k) for k in ks}

    def __repr__(self) -> str:
        return f"DeadlineMissModel({self.name!r}, source={self.source!r})"


def dominates(
    tighter: DeadlineMissModel, looser: DeadlineMissModel, ks: Sequence[int]
) -> bool:
    """True iff ``tighter(k) <= looser(k)`` for all sampled ``k`` — used
    to compare analysis variants and baselines."""
    return all(tighter(k) <= looser(k) for k in ks)
