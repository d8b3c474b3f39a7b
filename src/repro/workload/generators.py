"""Client models: open-loop (drawn or replayed) and closed-loop load
generation.

Every generator speaks one interface — :meth:`LoadGenerator.schedule`
plants its submissions (or its clients) into a server's simulator, and
:attr:`LoadGenerator.total_requests` says how many submissions it will
make — so :func:`run_workload` can drive any mix of them against one
:class:`~repro.serving.InferenceServer` and stop when every submission
reached a terminal state (complete, rejected or dropped).

The two client models and what they measure:

* :class:`OpenLoopGenerator` — arrivals fire on their own clock
  (Poisson), regardless of how the server keeps up.
  The right model for *overload* studies: offered load can exceed
  capacity, so queues grow and admission policy matters.  Given
  ``arrivals`` (an :class:`~repro.workload.arrivals.ArrivalTrace`'s
  ``times``) it replays a recorded/pre-generated trace verbatim.
* :class:`ClosedLoopGenerator` — ``num_clients`` synchronous clients,
  each with at most one request outstanding: submit, wait for the
  answer, think, repeat.  Offered load self-throttles to the server's
  speed (the classic interactive-client model), so latency-vs-load
  curves come from sweeping the population, not a rate knob.

Both draw lookup ids through the model's ``sample_batches`` —
pass :mod:`repro.traces` generators (``LocalityTraceGenerator.generate``
/ ``ZipfTraceGenerator.generate``) as per-table ``samplers`` to push Fig
3/4-shaped id streams through the full serving path (see
:func:`repro.workload.scenario.tenant_samplers`).  An open-loop schedule
draws each sampler's stream once, for all its arrivals, and cuts it per
request; a closed-loop client draws one request at a time.  Handed
recorded batches (:meth:`LoadGenerator.use_batches`), a generator draws
none, and only then keeps the requests it submitted.

Determinism: one RNG is shared by every generator in a run and consumed
in a deterministic order — open-loop draws (the gaps, then per arrival
the dense inputs and the ids of tables without a sampler) all happen at
schedule time in generator order (bit-identical to the pre-workload
open-loop loop, which drew every stream per request too: a sampler is
a stream of its own, see :data:`~repro.models.base.IndexSampler`),
closed-loop draws happen in simulated-event order, which the
discrete-event kernel makes reproducible.  Same seed, same latency
distribution.  An open-loop
schedule enters the simulator as one
:meth:`~repro.sim.kernel.Simulator.schedule_series`: every arrival keeps
the event key one ``schedule_at`` per arrival gave it, but only the next
one waits in the event heap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import partial
from itertools import islice
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..models.base import Batch, IndexSampler
from ..params import Count, NonNeg, PosCount, checked
from .arrivals import arrival_offsets

__all__ = [
    "LoadGenerator",
    "OpenLoopGenerator",
    "ClosedLoopGenerator",
    "run_workload",
]

Samplers = Optional[Dict[str, IndexSampler]]


class LoadGenerator(ABC):
    """One source of inference traffic for a single registered model."""

    @checked
    def __init__(self, model: str, batch_size: PosCount = 1, samplers: Samplers = None):
        self.model = model
        self.batch_size = batch_size
        self.samplers = samplers
        self.recorded = self.submitted = None  # see use_batches

    @property
    @abstractmethod
    def total_requests(self) -> int:
        """Submissions this generator will make over its lifetime."""

    @abstractmethod
    def schedule(self, server, rng: np.random.Generator) -> None:
        """Plant this generator's traffic into ``server``'s simulator.

        Called once, before (or while) the simulator runs; submissions
        happen in simulated time via ``server.submit``.
        """

    def use_batches(self, batches: Sequence[Batch]) -> "LoadGenerator":
        """Submit ``batches`` in order instead of drawing them, and keep
        every request submitted in :attr:`submitted`."""
        self.recorded = iter(batches)
        self.submitted = []
        return self

    def _sample(self, server, rng: np.random.Generator, n: int) -> List[Batch]:
        """The next ``n`` requests' batches, drawn in one go."""
        model = server.models[self.model]  # KeyError for unknown models
        if self.recorded is not None:
            return list(islice(self.recorded, n))
        return model.sample_batches(rng, self.batch_size, n, self.samplers)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.model}, "
            f"total={self.total_requests}, batch={self.batch_size})"
        )


class OpenLoopGenerator(LoadGenerator):
    """Open-loop arrivals: requests fire on their own clock.

    ``rate`` draws Poisson arrivals (exponential gaps).  ``arrivals``
    instead replays pre-generated absolute offsets (an
    :class:`ArrivalTrace`'s ``times``), skipping the gap draws entirely.

    Draw order per generator (gap vector first, then the whole
    schedule's batches through ``sample_batches``: each sampler stream
    once, the shared RNG once per arrival) is bit-identical to the
    pre-workload loop's one batch per arrival, so existing seeded
    experiments reproduce exactly.
    """

    @checked
    def __init__(
        self,
        model: str,
        rate: Optional[NonNeg] = None,
        n_requests: Count = 0,
        batch_size: PosCount = 1,
        samplers: Samplers = None,
        arrivals: Optional[np.ndarray] = None,
    ):
        super().__init__(model, batch_size, samplers)
        if arrivals is None:  # without a trace, a rate draws the arrivals
            if not rate:
                raise ValueError(f"rate for {model!r} must be positive")
            if n_requests < 1:
                raise ValueError("n_requests must be >= 1")
        else:
            arrivals = arrival_offsets(arrivals)
            n_requests = int(arrivals.size)
        self.rate = rate
        self.n_requests = n_requests
        self.arrivals = arrivals

    @property
    def total_requests(self) -> int:
        return self.n_requests

    def schedule(self, server, rng: np.random.Generator) -> None:
        sim = server.sim
        server.models[self.model]  # KeyError early for unknown models
        if self.arrivals is not None:
            times = sim.now + self.arrivals
        else:
            gaps = rng.exponential(1.0 / self.rate, size=self.n_requests)
            # Sequential accumulation, not cumsum: float addition order is
            # part of the bit-identity contract with the legacy loop.
            times = []
            arrival = sim.now
            for gap in gaps:
                arrival += float(gap)
                times.append(arrival)
        batches = self._sample(server, rng, len(times))
        submit = partial(server.submit, self.model)
        if self.submitted is not None:
            submit = partial(_kept, self.submitted, submit)
        sim.schedule_series(times, submit, batches)


def _kept(submitted: list, submit, batch: Batch) -> None:
    submitted.append(submit(batch))


class ClosedLoopGenerator(LoadGenerator):
    """``num_clients`` synchronous clients with think time.

    Each client keeps exactly one request outstanding: submit, wait for
    the terminal callback (complete, rejected *or* dropped — a shed
    request still consumes one of the client's turns), think, submit
    again, for ``requests_per_client`` turns.  Think times are drawn per
    turn, exponential with mean ``think_time_s`` (the classic
    interactive-user model).

    Offered load self-throttles: the aggregate rate can never exceed
    ``num_clients / (mean_response + think_time)``, so sweeping
    ``num_clients`` traces out a latency-vs-load curve that bends at
    saturation instead of diverging.
    """

    @checked
    def __init__(
        self,
        model: str,
        num_clients: PosCount,
        requests_per_client: PosCount,
        think_time_s: NonNeg = 0.0,
        batch_size: PosCount = 1,
        samplers: Samplers = None,
    ):
        super().__init__(model, batch_size, samplers)
        self.num_clients = num_clients
        self.requests_per_client = requests_per_client
        self.think_time_s = think_time_s

    @property
    def total_requests(self) -> int:
        return self.num_clients * self.requests_per_client

    def _think_delay(self, rng: np.random.Generator) -> float:
        if self.think_time_s == 0.0:
            return 0.0
        return float(rng.exponential(self.think_time_s))

    def schedule(self, server, rng: np.random.Generator) -> None:
        server.models[self.model]  # KeyError early for unknown models
        for _ in range(self.num_clients):
            self._client_turn(server, rng, self.requests_per_client)

    def _client_turn(self, server, rng: np.random.Generator, remaining: int) -> None:
        (batch,) = self._sample(server, rng, 1)

        def done(_request, remaining=remaining):
            if remaining <= 1:
                return
            # Think, then take the next turn.  Scheduling through the
            # simulator (even for zero think time) keeps the next submit
            # out of the server's completion path.
            server.sim.schedule(
                self._think_delay(rng),
                lambda: self._client_turn(server, rng, remaining - 1),
            )

        request = server.submit(self.model, batch, on_done=done)
        if self.submitted is not None:
            self.submitted.append(request)


def run_workload(
    server,
    generators: Union[LoadGenerator, Sequence[LoadGenerator]],
    seed: int = 0,
    limit: float = float("inf"),
):
    """Drive ``generators`` against ``server`` until all traffic settled.

    Returns the server's :class:`~repro.serving.stats.ServingStats`.
    One RNG, seeded with ``seed``, is shared by every generator, so a
    whole multi-tenant run is reproducible from a single seed.
    """
    gens: List[LoadGenerator] = (
        [generators] if isinstance(generators, LoadGenerator) else list(generators)
    )
    if not gens:
        raise ValueError("need at least one load generator")
    rng = np.random.default_rng(seed)
    base = server.stats.settled
    total = 0
    for generator in gens:
        generator.schedule(server, rng)
        total += generator.total_requests
    # Completion signal, not polling: stats sets ``done`` when the target
    # is met and the kernel stops after that event, O(1) in hosts.
    done: List[bool] = []
    server.stats.when_settled(base + total, lambda: done.append(True))
    server.sim.run_until(done.__len__, limit)
    return server.stats
