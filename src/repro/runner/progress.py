"""Shard-tagged, line-buffered progress output.

With several shard workers and a coordinator sharing one terminal,
naive ``print(..., file=sys.stderr)`` calls interleave mid-line: the
underlying stream is unbuffered for bytes but a single logical line is
emitted as several ``write()`` calls (text, then the newline), so two
shards racing produce garbage like ``[shard 0] chunk[shard 2] 3 done``.

:class:`ShardLog` fixes this at the source: every line is assembled in
full — tag, message, newline — and handed to the stream as *one*
``write()`` call under a lock, then flushed.  The coordinator and its
dispatch threads funnel all progress through one shared instance (a
local worker process writes nothing: its dispatch thread in the parent
logs its chunks), so ``repro batch -v`` output is parseable
line-by-line no matter how many shards race.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import IO, Optional


class ShardLog:
    """Thread-safe writer emitting whole ``[shard <tag>] ...`` lines.

    ``verbose=False`` turns every call into a no-op so call sites don't
    need their own guards.  ``tag()`` binds a shard id once and returns
    a lightweight proxy, keeping per-event call sites to one argument.
    """

    def __init__(
        self,
        stream: Optional[IO[str]] = None,
        *,
        verbose: bool = True,
        clock: Optional[float] = None,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.verbose = verbose
        self._lock = threading.Lock()
        self._start = clock if clock is not None else time.perf_counter()

    def line(self, tag: str, message: str) -> None:
        """Emit ``[shard <tag>] <elapsed>s <message>`` atomically."""
        if not self.verbose:
            return
        elapsed = time.perf_counter() - self._start
        text = f"[shard {tag}] {elapsed:8.3f}s {message}\n"
        with self._lock:
            # One write() per logical line is the whole point: the
            # stream never sees a partial line from any thread.
            self.stream.write(text)
            self.stream.flush()

    def tag(self, tag: str) -> "TaggedLog":
        return TaggedLog(self, tag)


class TaggedLog:
    """A :class:`ShardLog` view bound to one shard id."""

    def __init__(self, log: ShardLog, tag: str):
        self._log = log
        self.tag = tag

    def line(self, message: str) -> None:
        self._log.line(self.tag, message)


#: Shared silent default: call sites can always log unconditionally.
NULL_LOG = ShardLog(verbose=False)
