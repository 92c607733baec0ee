"""Op timing from outside, corrected for the speed of a shared host.

On a shared VM the host flips between phases within seconds; in a slow
phase the program and any other Python code run about twice as long.
:func:`probe` is a fixed loop that touches no ``repro`` code, so its
time tracks only the host.  :class:`OpClock` runs it between ops, at
most every :data:`PROBE_EVERY_S`, and turns wall time into *reference
time*: each stretch between two probes is divided by the host factor,
the mean of the two probe times over :data:`REFERENCE_PROBE_S`.  On the
reference host the factor ranged from 0.8 to 2.1.  Probe time itself is
left out.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Dict, List, Tuple

#: A typical time of :func:`probe` on the reference host (a shared
#: 2-core Xeon VM, Python 3.11).  It only sets the scale of reference
#: time; comparisons on one host do not depend on it.
REFERENCE_PROBE_S = 0.00225
#: Runs of the probe loop per probe; the fastest one is kept, which
#: drops a run the scheduler interrupted.
PROBE_TRIES = 2
#: Steps of one probe loop (about 2.3 ms on the reference host).
PROBE_STEPS = 3000
#: Seconds between probes at most, when ops are shorter than that.
PROBE_EVERY_S = 0.25


def probe() -> float:
    """Seconds of a fixed hash-and-dict loop that no code change touches.

    Its working set is a few kilobytes, so the program's heap does not
    change its speed; only the host does.
    """
    best = float("inf")
    for _ in range(PROBE_TRIES):
        started = time.perf_counter()
        digest = b"perfbench"
        table: Dict[str, int] = {}
        for step in range(PROBE_STEPS):
            digest = hashlib.sha256(digest).digest()
            key = digest.hex()[:12]
            table[key] = table.get(key, 0) + step
            if len(table) > 512:
                table.clear()
        best = min(best, time.perf_counter() - started)
    return best


class OpClock:
    """Times ops and probes the host between them.

    ``begin`` and ``end`` bracket one repetition; every op inside is run
    through ``timed``.  Probes are taken only between ops, so no op's
    time includes one.  Ops do not nest: no entry point calls
    ``run_round`` from inside another round.
    """

    def __init__(self) -> None:
        #: (start, end) perf_counter readings of each op.
        self.samples: List[Tuple[float, float]] = []
        #: (start, end, probe seconds) of each probe.
        self.marks: List[Tuple[float, float, float]] = []

    def wrap_rounds(self) -> None:
        """Time every ``RollupNode.run_round`` call as one op.

        It wraps the class attribute for the whole process, so it sees
        the rounds of every deployment the entry points build.
        """
        from repro.rollup.node import RollupNode

        original = RollupNode.run_round
        timed = self.timed

        def run_round(node, *args, **kwargs):
            return timed(original, node, *args, **kwargs)

        RollupNode.run_round = run_round

    def _probe(self) -> None:
        started = time.perf_counter()
        seconds = probe()
        self.marks.append((started, time.perf_counter(), seconds))

    def timed(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` as one op, probing first if a probe is due."""
        if time.perf_counter() - self.marks[-1][1] >= PROBE_EVERY_S:
            self._probe()
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.samples.append((started, time.perf_counter()))

    def begin(self) -> None:
        self.samples.clear()
        self.marks.clear()
        self._probe()

    def end(self) -> Dict[str, object]:
        """The repetition's wall and reference times, and its ops'.

        Both repetition times leave the probes out.  ``op_ms`` is each
        op's wall time and ``op_host`` the host factor of the stretch it
        started in, so ``op_ms / op_host`` is its reference time.
        """
        self._probe()
        marks = self.marks
        factors = [
            (before[2] + after[2]) / 2.0 / REFERENCE_PROBE_S
            for before, after in zip(marks, marks[1:])
        ]
        stretches = [after[0] - before[1]
                     for before, after in zip(marks, marks[1:])]
        op_host = []
        stretch = 0
        for started, _ in self.samples:
            while marks[stretch + 1][0] < started:
                stretch += 1
            op_host.append(factors[stretch])
        return {
            "wall_s": sum(stretches),
            "ref_s": sum(s / f for s, f in zip(stretches, factors)),
            "op_ms": [(end - start) * 1000.0 for start, end in self.samples],
            "op_host": op_host,
        }
