"""Host-speed probe: scale measured times to a host of fixed speed.

On a shared host the speed of the whole machine drifts by up to about 1.6x
within seconds, in CPU time as well as wall time, and that drift swamps any
change to the program.  A probe is a fixed piece of pure-Python work of the
kind `wph` does (a coin-change count table, modular residues).  The worker
times one probe before every call and a short run of probes at each end of
the pass, and a timer signal runs one more every TICK_S while a call is
running, so that a long call is sampled as it runs; the handler's own time
is taken out of the call's.  A call's time is then scaled by REF_S / (the
median probe time around it): a call that took 3 ms while probes took
0.3 ms reads 2 ms.  The
probe does not depend on `wph`, so a change to the program moves the scaled
time exactly as it moves the raw one, while host drift moves both the probe
and the call and cancels out.
"""

from __future__ import annotations

import os
import signal
import statistics
import struct
from time import perf_counter, process_time, thread_time

REF_S = 2.0e-4  # nominal probe time: scaled seconds are seconds at this probe speed
EDGE_S = 0.2  # seconds of probes at each end of a pass
TICK_S = 0.05  # probe period while a call runs
INSIDE_MIN = 10  # a call with this many probes inside it uses only those
WINDOW_S = 0.05  # a shorter call uses the probes within this of it


def probe() -> int:
    table = [1] + [0] * 600
    for a in (3, 5, 7, 11):
        for i in range(a, 601):
            table[i] += table[i - a]
    residues = 0
    for j in range(1, 120):
        residues += (j * 7) % 127 + (j * 11) % 127
    return table[-1] + residues


def timed_probe(probes: list[tuple[float, float]]) -> None:
    """Run one probe and append (midpoint, CPU seconds) to `probes`.

    The probe's duration is this thread's CPU time, which waiting for a core
    does not inflate: the search pool keeps both cores busy while the parent
    probes."""
    t0, c0 = perf_counter(), thread_time()
    probe()
    c1, t1 = thread_time(), perf_counter()
    probes.append(((t0 + t1) / 2, c1 - c0))


def probe_for(seconds: float, probes: list[tuple[float, float]]) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        timed_probe(probes)


class Sampler:
    """Times a probe every TICK_S from a SIGALRM handler while active, in this
    process and in the processes it forks (the search pool's workers).

    `spent_s` and `spent_cpu_s` total the handler's wall and CPU time in this
    process, to be taken out of the latency and CPU time of the call it
    interrupted.  Forked workers write each probe to a pipe instead;
    `collect` moves those into the probe list.
    """

    RECORD = struct.Struct("dd")  # (midpoint, CPU seconds); one write each, atomic

    def __init__(self, probes: list[tuple[float, float]]) -> None:
        self.probes = probes
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self.active = False
        self.forked = False
        self.read_fd, self.write_fd = os.pipe()
        os.set_blocking(self.read_fd, False)
        os.set_blocking(self.write_fd, False)
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if self.active:  # a pool worker: interval timers are not inherited
            self.forked = True
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def _tick(self, signum, frame) -> None:
        c0, t0 = process_time(), perf_counter()
        timed_probe(self.probes)
        if self.forked:
            try:
                os.write(self.write_fd, self.RECORD.pack(*self.probes.pop()))
            except BlockingIOError:  # the pipe is full: drop the probe
                pass
            return
        self.spent_s += perf_counter() - t0
        self.spent_cpu_s += process_time() - c0

    def collect(self) -> float:
        """Move the probes forked workers sent into the probe list; returns
        their CPU seconds, which the workers' CPU time includes."""
        data = b""
        while True:
            try:
                chunk = os.read(self.read_fd, 1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                break
            data += chunk
        sent = list(self.RECORD.iter_unpack(data))
        self.probes.extend(sent)
        return sum(d for _, d in sent)

    def __enter__(self) -> "Sampler":
        self.active = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.active = False
        os.close(self.read_fd)
        os.close(self.write_fd)


def local_probe_s(probes: list[tuple[float, float]], start: float, end: float) -> float:
    """Median probe time during [start, end] when INSIDE_MIN probes ran then,
    else within WINDOW_S of it, else over the whole pass."""
    inside = [d for mid, d in probes if start <= mid <= end]
    if len(inside) >= INSIDE_MIN:
        return statistics.median(inside)
    near = [d for mid, d in probes if start - WINDOW_S <= mid <= end + WINDOW_S]
    return statistics.median(near or [d for _, d in probes])


def scale(seconds: float, probe_s: float) -> float:
    return seconds * REF_S / probe_s
