"""Open-loop load generator for :class:`repro.serve.EvaluationService`.

Independent users send on a schedule regardless of how the service is
doing.  The schedule is fixed before the run as absolute due times; each
request is timed from its due time, not from when it was actually sent,
so a stall that delays later sends shows up in their latency.  How late
the generator itself ran (send time minus due time) is reported
separately.

The service applies batches inline on the event loop, so while an apply
runs the generator cannot send: every request that fell due meanwhile
is sent together as soon as the loop is free, which is what lets the
batcher fill.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np


def poisson_due_times(
    rng: np.random.Generator, rate: float, seconds: float
) -> np.ndarray:
    """Poisson arrivals of ``rate``, conditioned on each second's count.

    Every whole second of the schedule receives exactly ``round(rate)``
    arrivals at uniform random times within it (a Poisson process
    conditioned on its per-second counts).  Runs therefore differ in
    arrival pattern within each second but always offer the nominal load
    second by second, which keeps a near-capacity queue's latency from
    swinging with how bursty one seed's draw happened to be.
    """
    per_second = max(1, int(round(rate)))
    slots = max(1, int(round(seconds)))
    due = np.arange(slots)[:, None] + rng.uniform(0.0, 1.0, (slots, per_second))
    return np.sort(due.ravel())


@dataclass
class LoadResult:
    latency: list[float] = field(default_factory=list)  # from due time
    late: list[float] = field(default_factory=list)  # send - due
    results: list = field(default_factory=list)  # array or exception
    start: float = 0.0  # loop time of due offset 0
    end: float = 0.0  # loop time the schedule ends
    last_done: float = 0.0

    @property
    def span_s(self) -> float:
        """Schedule length, extended to the last answer if that is later."""
        return max(self.end, self.last_done) - self.start


async def _request(service, key, density, due: float, out: LoadResult, i: int):
    loop = asyncio.get_running_loop()
    try:
        out.results[i] = await service.evaluate(key, density)
    except Exception as exc:  # a failed request is counted, not raised
        out.results[i] = exc
    done = loop.time()
    out.latency[i] = done - due
    out.last_done = max(out.last_done, done)


async def open_loop(
    service, key, densities, due_offsets, seconds: float
) -> LoadResult:
    """Send ``densities[i]`` at ``start + due_offsets[i]``; await them all.

    ``seconds`` is the schedule's length (offsets lie in ``[0, seconds)``).
    """
    loop = asyncio.get_running_loop()
    n = len(due_offsets)
    out = LoadResult(
        latency=[float("nan")] * n, late=[0.0] * n, results=[None] * n
    )
    start = loop.time() + 0.01
    out.start, out.end = start, start + seconds
    tasks = []
    for i, offset in enumerate(due_offsets):
        due = start + float(offset)
        wait = due - loop.time()
        if wait > 0:
            await asyncio.sleep(wait)
        out.late[i] = loop.time() - due
        tasks.append(
            asyncio.ensure_future(
                _request(service, key, densities[i], due, out, i)
            )
        )
    await asyncio.gather(*tasks)
    return out
