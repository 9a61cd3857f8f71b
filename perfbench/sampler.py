"""Host-speed sampler: a fixed piece of reference work, timed over and over.

On a shared host the speed of a core drifts by up to 1.5x within seconds
(other tenants, frequency changes), and the drift shows in CPU time as much
as in wall time.  ``run.py`` starts this process beside each workload worker.
It runs a short burst of pure-Python reference work, records the burst's CPU
time and the monotonic clock at its middle, sleeps, and repeats, at a duty of
a few percent of one core, until its stdin closes.  Then it prints one JSON
line: ``{"samples": [[t_mid_ns, cpu_ns], ...]}``.

CPU time rather than wall time is recorded so that a burst the scheduler
delays is not read as a slow host.  The reference work touches nothing of
the library, so a change to the library cannot move it.
"""

from __future__ import annotations

import hashlib
import json
import select
import sys
import time

PERIOD_S = 0.03  # sleep between bursts
BURST_ROUNDS = 600  # about 1.5 ms of CPU time on a 2020s server core


def burst(rounds: int = BURST_ROUNDS) -> float:
    """Reference work shaped like the library's: hashing, dicts, float math."""
    acc, table = 0.0, {}
    for k in range(rounds):
        word = int.from_bytes(hashlib.sha256(k.to_bytes(4, "little")).digest()[:8], "little")
        u = (word >> 11) / 9007199254740992.0
        table[(k & 63, k >> 6)] = u
        acc += max(u, table.get((k & 63, (k >> 6) - 1), 0.0)) * 0.5
    return acc


def main() -> int:
    samples = []
    while True:
        c0, m0 = time.thread_time_ns(), time.monotonic_ns()
        burst()
        c1, m1 = time.thread_time_ns(), time.monotonic_ns()
        samples.append([(m0 + m1) // 2, c1 - c0])
        readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if readable and not sys.stdin.buffer.read1(4096):
            break
    print(json.dumps({"samples": samples}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
