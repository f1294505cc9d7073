"""Reference task that measures how fast the host is at the moment.

The worker starts this script in its own interpreter, which never imports
timebinsim, and before each untraced pass asks it to run the task once. The
task builds many small frozen objects and groups them in a dict of lists,
which is the kind of work (interpreter, allocator, pointer chasing) that the
workloads do. A host that is busy with other work slows it about as much as
it slows a pass, so ``wall_s / probe_s`` stays put while both drift. A
change to timebinsim cannot change the task's time.

Protocol: one line on standard input asks for one run; the reply is one
line with the run's time in seconds. End of input ends the process.

    printf '\\n\\n' | python3 perfbench/probe.py
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass

RECORDS = 150_000


@dataclass(frozen=True)
class Record:
    shot: int
    qubit: int
    setting: tuple
    outcome: str


def task():
    setting = ("X", 0.0)
    outcomes = ("0", "1", "x")
    records = [Record(i >> 2, i & 3, setting, outcomes[i % 3]) for i in range(RECORDS)]
    shots = {}
    for r in records:
        shots.setdefault(r.shot, []).append(r)
    return sum(len(v) for v in shots.values())


def main():
    for _ in sys.stdin:
        t0 = time.perf_counter()
        if task() != RECORDS:
            return 1
        sys.stdout.write(f"{time.perf_counter() - t0!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
