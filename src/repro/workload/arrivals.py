"""Open-loop arrival processes.

The paper's §VI evaluation drives the protocol with closed-loop probes —
clients that wait for a commit before submitting again — which by
construction can never push the system past its knee.  Measuring fairness
*under load* (reorder distance, sandwich exposure) needs open-loop
traffic: submission times drawn from an arrival process, independent of
protocol back-pressure.

Every process here yields absolute submission timestamps (virtual µs)
from a dedicated :class:`numpy.random.Generator`, so the arrival sequence
of a run is a pure function of ``(seed, spec)`` — identical across
repeats, worker counts, and fault plans.  A million thin
per-user Poisson streams superpose into one Poisson stream at the
aggregate rate, which is how ``python -m repro run --arrival poisson
--users 1000000`` simulates a million-user population without a million
client processes: the engine draws from the aggregate process and the
capacity model (:func:`repro.metrics.capacity.extrapolate_users`) scales
the verdict back to the user population.

Processes are registered by ``kind`` so :class:`~repro.workload.spec
.WorkloadSpec` can name them declaratively (mirroring the protocol and
client registries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Tuple, Type

import numpy as np

SECOND_US = 1_000_000


class ArrivalProcess:
    """Base contract: a serialisable generator of submission timestamps."""

    kind: str = "base"

    def times(
        self, rng: np.random.Generator, start_us: int, horizon_us: int
    ) -> Iterator[int]:
        """Yield non-decreasing absolute timestamps in [start, horizon)."""
        raise NotImplementedError

    def mean_rate_tps(self) -> float:
        """Long-run mean offered rate (tx/s) — feeds the capacity model."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        data = {"kind": self.kind}
        data.update(self.__dict__ if not hasattr(self, "__dataclass_fields__")
                    else {f: getattr(self, f) for f in self.__dataclass_fields__})
        # Tuples serialize as lists; from_dict converts back.
        return {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in data.items()
        }


_ARRIVALS: Dict[str, Type[ArrivalProcess]] = {}


def register_arrival(cls: Type[ArrivalProcess]) -> Type[ArrivalProcess]:
    """Register an arrival-process class under its ``kind`` name."""
    _ARRIVALS[cls.kind] = cls
    return cls


def available_arrivals() -> Tuple[str, ...]:
    return tuple(sorted(_ARRIVALS))


def make_arrivals(kind: str, **params: Any) -> ArrivalProcess:
    """Instantiate a registered process by name."""
    cls = _ARRIVALS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown arrival process {kind!r}; "
            f"available: {', '.join(available_arrivals())}"
        )
    return cls(**params)


def arrivals_from_dict(data: Dict[str, Any]) -> ArrivalProcess:
    """Inverse of :meth:`ArrivalProcess.to_dict`."""
    params = dict(data)
    kind = params.pop("kind")
    if kind == TraceArrivals.kind and "offsets_us" in params:
        params["offsets_us"] = tuple(int(x) for x in params["offsets_us"])
    return make_arrivals(kind, **params)


@register_arrival
@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process at ``rate_tps`` transactions/second."""

    rate_tps: float = 100.0
    kind = "poisson"

    def __post_init__(self) -> None:
        if self.rate_tps <= 0:
            raise ValueError("rate_tps must be positive")

    def mean_rate_tps(self) -> float:
        return self.rate_tps

    def times(self, rng, start_us, horizon_us):
        mean_gap_us = SECOND_US / self.rate_tps
        t = float(start_us)
        while True:
            t += rng.exponential(mean_gap_us)
            if t >= horizon_us:
                return
            yield int(t)


@register_arrival
@dataclass(frozen=True)
class BurstyArrivals(ArrivalProcess):
    """On/off modulated Poisson: bursts of ``burst_factor``× the quiet rate.

    Each ``period_us`` window spends ``duty`` of its span in the ON state;
    rates are chosen so the long-run mean is ``rate_tps``.  Implemented by
    thinning a homogeneous process at the ON rate, so one rng stream fully
    determines the sequence.
    """

    rate_tps: float = 100.0
    burst_factor: float = 8.0
    period_us: int = SECOND_US
    duty: float = 0.25
    kind = "bursty"

    def __post_init__(self) -> None:
        if self.rate_tps <= 0:
            raise ValueError("rate_tps must be positive")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1")
        if not (0.0 < self.duty <= 1.0):
            raise ValueError("duty must be in (0, 1]")
        if self.period_us <= 0:
            raise ValueError("period_us must be positive")

    def mean_rate_tps(self) -> float:
        return self.rate_tps

    def _rates(self) -> Tuple[float, float]:
        off = self.rate_tps / (
            self.duty * self.burst_factor + (1.0 - self.duty)
        )
        return self.burst_factor * off, off

    def times(self, rng, start_us, horizon_us):
        on_rate, off_rate = self._rates()
        accept_off = off_rate / on_rate
        mean_gap_us = SECOND_US / on_rate
        t = float(start_us)
        while True:
            t += rng.exponential(mean_gap_us)
            if t >= horizon_us:
                return
            in_burst = (t % self.period_us) < self.duty * self.period_us
            if in_burst or rng.random() < accept_off:
                yield int(t)


@register_arrival
@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally modulated Poisson — a compressed day/night cycle.

    λ(t) = rate · (1 + amplitude · sin(2π(t/period + phase))), realised by
    thinning a homogeneous process at the peak rate.
    """

    rate_tps: float = 100.0
    amplitude: float = 0.8
    period_us: int = 60 * SECOND_US
    phase: float = 0.0
    kind = "diurnal"

    def __post_init__(self) -> None:
        if self.rate_tps <= 0:
            raise ValueError("rate_tps must be positive")
        if not (0.0 <= self.amplitude < 1.0):
            raise ValueError("amplitude must be in [0, 1)")
        if self.period_us <= 0:
            raise ValueError("period_us must be positive")

    def mean_rate_tps(self) -> float:
        return self.rate_tps

    def times(self, rng, start_us, horizon_us):
        peak = self.rate_tps * (1.0 + self.amplitude)
        mean_gap_us = SECOND_US / peak
        t = float(start_us)
        while True:
            t += rng.exponential(mean_gap_us)
            if t >= horizon_us:
                return
            lam = self.rate_tps * (
                1.0
                + self.amplitude
                * math.sin(2.0 * math.pi * (t / self.period_us + self.phase))
            )
            if rng.random() < lam / peak:
                yield int(t)


@register_arrival
@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """Replay explicit submission offsets (µs after the client start).

    The replay is literal — no randomness is drawn — so recorded traces
    reproduce bit-identically regardless of seed.
    """

    offsets_us: Tuple[int, ...] = ()
    kind = "trace"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "offsets_us", tuple(int(x) for x in self.offsets_us)
        )
        if any(b < a for a, b in zip(self.offsets_us, self.offsets_us[1:])):
            raise ValueError("trace offsets must be non-decreasing")

    def mean_rate_tps(self) -> float:
        if len(self.offsets_us) < 2:
            return 0.0
        span = self.offsets_us[-1] - self.offsets_us[0]
        if span <= 0:
            return 0.0
        return (len(self.offsets_us) - 1) * SECOND_US / span

    def times(self, rng, start_us, horizon_us):
        for off in self.offsets_us:
            t = start_us + off
            if t >= horizon_us:
                return
            yield int(t)


__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "TraceArrivals",
    "register_arrival",
    "available_arrivals",
    "make_arrivals",
    "arrivals_from_dict",
]
