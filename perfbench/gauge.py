"""Speed gauge: a fixed chunk of pure-Python work, timed in its own process.

The machine this benchmark runs on is shared, and its speed drifts by tens of
percent over minutes for the same work.  The workload process has a gauge
process run one chunk before every request, so the chunks sample the
machine's speed over the same stretch of time as the requests.  run.py
scales the end-to-end times by ``NOMINAL_S / median(chunk times)``: a figure
then reads as the time the work takes when a chunk takes ``NOMINAL_S``, and
a slower or faster stretch of the machine cancels out of it.

A chunk has two parts, each like one kind of work in the library:

- Jacobi symbols by the reciprocity loop: small-integer arithmetic, branches
  and calls in the interpreter, as in ``arith.kronecker``;
- reads at pseudo-random places of a list of a million ints, as in the
  lookups of the sieve tables: this part waits on the memory caches.

It uses nothing from quadchar, so no change to the library moves it.  The
chunks run in a process of their own so that the list does not count in the
workload process's memory.  Run as a script, it is that process: it answers
each line on stdin with the time of one chunk.
"""

import random
import subprocess
import sys
import time

# About the median chunk time on the 2-core development machine (Python 3.11).
NOMINAL_S = 0.05
_JACOBI_TOP = 24_001
_TABLE_BITS = 20
_READS = 60_000


def _jacobi(a: int, n: int) -> int:
    a %= n
    t = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                t = -t
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _chunk(table: list[int]) -> float:
    t0 = time.perf_counter()
    s = 0
    for n in range(3, _JACOBI_TOP, 2):
        s += _jacobi(1_234_567, n)
    mask = len(table) - 1
    i = 1
    for _ in range(_READS):
        i = (i * 1_103_515_245 + 12_345) & mask
        s += table[i] & 7
    return time.perf_counter() - t0


class Gauge:
    """A gauge process; ``chunk_s()`` runs one chunk in it and returns its time."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def chunk_s(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()


def _serve() -> None:
    rng = random.Random(0)
    table = [rng.randrange(1 << 30) for _ in range(1 << _TABLE_BITS)]
    rng.shuffle(table)  # so that neighbouring entries point to scattered ints
    for _ in sys.stdin:
        print(repr(_chunk(table)), flush=True)


if __name__ == "__main__":
    _serve()
