"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's VM changes speed by 2x and more from one minute to the next,
because other tenants share the host: it switches between a fast and a slow
state, and the share of time in each varies from run to run.  That moves
every time the benchmark takes and swamps the differences between two
versions of the program.  Each run therefore spends about a tenth of its
time on this kernel, interleaved with the requests, and reports each
request's time multiplied by ``NOMINAL_MS / kernel time next to it``: the
time the request would take on a host where the kernel takes
``NOMINAL_MS``.  The host's state lasts longer than a request, so a request
and the kernel passes on either side of it mostly see the same state.  All
times are process CPU times, which leave out the time the hypervisor gives
the vCPU to other tenants (steal); the program is single-threaded and
CPU-bound, so otherwise they equal wall times.

The kernel does not use contactcurv, so no change to the program moves it.
It mixes the two kinds of work the program does: recursive evaluation of a
small expression tree in pure Python, and numpy calls on small dense arrays.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_MS = 7.0  # about the kernel's time on the benchmark VM when the host is quiet
DUTY = 0.1        # kernel time as a share of request time


def _tree(depth: int):
    if depth == 0:
        return ("c", 1.0001)
    return ("+", _tree(depth - 1), ("*", ("x",), _tree(depth - 1)))


def _evaluate(node, env):
    op = node[0]
    if op == "c":
        return node[1]
    if op == "x":
        return env["x"]
    a = _evaluate(node[1], env)
    b = _evaluate(node[2], env)
    return a + b if op == "+" else a * b


_TREE = _tree(10)
_RNG = np.random.default_rng(0)
_R4 = _RNG.random((6, 6, 6, 6))
_G = _RNG.random((6, 6)) + 6.0 * np.eye(6)


def kernel_ms() -> float:
    """CPU time of one pass of the kernel, in milliseconds.

    A pass lasts several milliseconds, like a short request: when the host
    takes the CPU away in bursts, a much shorter pass would mostly fall
    between the bursts and miss the slow-down that requests see.
    """
    t0 = time.process_time()
    for _ in range(4):
        for _ in range(3):
            _evaluate(_TREE, {"x": 0.5})
        for _ in range(20):
            b = np.einsum("ijkl,lm->ijkm", _R4, np.linalg.inv(_G))
            np.einsum("iijk->jk", b)
    return (time.process_time() - t0) * 1000.0


class HostSpeed:
    """Kernel samples taken alongside the requests of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._owed_ms = 0.0

    def keep_up(self, request_ms: float) -> None:
        """Run the kernel until its total time is ``DUTY`` of the request
        time so far, so samples are spread evenly over the run."""
        self._owed_ms += DUTY * request_ms
        while self._owed_ms > 0.0 or not self.samples:
            ms = kernel_ms()
            self.samples.append(ms)
            self._owed_ms -= ms

    def near(self, index: int) -> float:
        """Kernel time next to a request that started when ``index`` samples
        had been taken: the mean of the sample just before it and the one
        just after it, when there is one."""
        after = self.samples[index:index + 1]
        return statistics.fmean(self.samples[index - 1:index] + after)

    def scale_at(self, index: int) -> float:
        """Factor that turns the time of the request that started at
        ``index`` into a time at the nominal host speed."""
        return NOMINAL_MS / self.near(index)

    def scale(self) -> float:
        """One factor for the whole run, for times not tied to one request."""
        return NOMINAL_MS / statistics.median(self.samples)
