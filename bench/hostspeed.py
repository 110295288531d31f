"""A fixed probe of host speed that belongs to the benchmark.

On a virtual machine whose host is shared with other tenants, speed drifts
by up to a half over minutes, so the median op of one 20-second run can
differ from the next run's by more than any useful bound. Times are
therefore reported at a reference host speed, at which probe_s() takes
REFERENCE_PROBE_S (about its typical time on the 2-vCPU machine the
benchmark was written on). The probe is the benchmark's own code, so a
change to afpipe cannot move it. It is a module of its own so that another
interpreter can run it: a fresh one after a timed cold start, or a probe
process beside the benchmark (see ProbeProcess).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

REFERENCE_PROBE_S = 0.06


def _probe_work() -> int:
    # About 20 MB of objects: more than a core's L2 cache, so the probe slows
    # down when other tenants crowd the shared L3 cache, as afpipe does.
    keys = [(i * 7919) % 1000003 for i in range(200000)]
    index = {key: i for i, key in enumerate(keys)}
    return len(index) + len(sorted(keys))


def probe_s(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python task over `repeats` runs."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _probe_work()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scale(seconds: float, probe: float) -> float:
    """`seconds` measured while the probe took `probe`, at the reference speed."""
    return seconds * REFERENCE_PROBE_S / probe


class ProbeProcess:
    """probe_s() run on request in a process of its own.

    The probe's 20 MB would otherwise raise the benchmark process's peak
    resident memory above afpipe's own on the smaller workloads.
    """

    def __enter__(self) -> "ProbeProcess":
        self.proc = subprocess.Popen([sys.executable, "-E", __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc_info) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(probe_s()), flush=True)
