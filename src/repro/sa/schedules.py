"""Cooling schedules, including the adaptive Lam-style schedule.

The paper (section 4.1) builds on Lam's thesis: an adaptive cooling
schedule "expressed in terms of statistical quantities (mean, variance,
correlation) of the system's cost function", obtained by maximizing the
cooling speed subject to quasi-equilibrium.  Lam's analysis also showed
cooling speed is maximized when the move acceptance ratio stays near
0.44.

Neither Lam's thesis nor the authors' refinements [11] are published in
accessible form, so this module provides two faithful-behavior
implementations:

* :class:`LamDelosmeSchedule` — the statistical form: the inverse
  temperature ``S`` grows at a rate proportional to ``λ / σ(S)``
  (quasi-equilibrium permits temperature steps of the order of the cost
  standard deviation) modulated by Lam's acceptance-ratio factor
  ``ρ(α) = 4α(1-α)²/(2-α)²``, which peaks near α ≈ 0.44 — cooling slows
  automatically when acceptance drifts away from the optimum.
* :class:`ModifiedLamSchedule` — the widely used trajectory form
  (Swartz/Boyan/Cicirello): track a target acceptance-rate trajectory
  (warm start, 0.44 plateau for the middle half, exponential tail) by
  multiplicative temperature adjustment.  Needs the planned horizon.

A plain :class:`GeometricSchedule` is included as the ablation baseline
(``benchmarks/test_ablation_schedules.py``); the paper's pitch is
precisely that the adaptive schedule needs no per-problem tuning while
geometric cooling does.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.numeric import left_sum


def lam_quality_factor(acceptance: float) -> float:
    """Lam's move-quality factor ``ρ(α) = 4α(1-α)²/(2-α)²``.

    Zero at α ∈ {0, 1}, maximal near the famous α ≈ 0.44.
    """
    if not 0.0 <= acceptance <= 1.0:
        raise ConfigurationError("acceptance ratio must lie in [0, 1]")
    return 4.0 * acceptance * (1.0 - acceptance) ** 2 / (2.0 - acceptance) ** 2


class CoolingSchedule(ABC):
    """Temperature controller driven by per-iteration feedback."""

    @abstractmethod
    def begin(self, warmup_costs: Sequence[float]) -> None:
        """Initialize from the costs sampled during the infinite-
        temperature warmup phase."""

    @abstractmethod
    def record(self, cost: float, accepted: bool) -> None:
        """Feed back the cost reached and whether the move was accepted;
        the schedule updates its temperature."""

    @property
    @abstractmethod
    def temperature(self) -> float:
        """Current temperature (may be ``inf`` before :meth:`begin`)."""

    def frozen(self) -> bool:
        """Heuristic freeze indicator (used only for reporting)."""
        return False


def _spread(samples: Sequence[float]) -> float:
    """Standard deviation of the finite samples (>= tiny positive)."""
    finite = [c for c in samples if math.isfinite(c)]
    if len(finite) < 2:
        return 1.0
    mean = left_sum(finite) / len(finite)
    var = left_sum((c - mean) ** 2 for c in finite) / (len(finite) - 1)
    return max(math.sqrt(var), 1e-12)


class LamDelosmeSchedule(CoolingSchedule):
    """Statistically controlled adaptive cooling (inverse-temperature form).

    Per iteration the inverse temperature is raised by
    ``λ · ρ(α̂) / σ̂`` where α̂ and σ̂ are exponentially smoothed
    estimates of the acceptance ratio and of the cost standard
    deviation.  Dividing by σ̂ is the quasi-equilibrium condition (the
    temperature may only move by a fraction of the cost spread per
    step); ρ throttles cooling whenever acceptance leaves the efficient
    region around 0.44.

    ``lambda_rate`` is the single quality/speed knob the paper exposes
    to the designer ("lets the designer select the quality of the
    optimization, hence its computing time").
    """

    def __init__(
        self,
        lambda_rate: float = 0.05,
        smoothing: float = 0.02,
        initial_acceptance: float = 0.95,
    ) -> None:
        if lambda_rate <= 0:
            raise ConfigurationError("lambda_rate must be > 0")
        if not 0 < smoothing <= 1:
            raise ConfigurationError("smoothing must lie in (0, 1]")
        if not 0 < initial_acceptance < 1:
            raise ConfigurationError("initial_acceptance must lie in (0, 1)")
        self.lambda_rate = lambda_rate
        self.smoothing = smoothing
        self._alpha = initial_acceptance
        self._sigma = 1.0
        self._sigma_floor = 1e-9
        self._mean = 0.0
        self._inverse_temperature = 0.0  # S = 0 <=> T = inf

    def begin(self, warmup_costs: Sequence[float]) -> None:
        self._sigma = _spread(warmup_costs)
        # Quasi-equilibrium needs sigma bounded away from zero: when the
        # walk stalls on one cost value the smoothed deviation collapses
        # and an unfloored rate would quench the system instantly.
        self._sigma_floor = max(1e-9, 1e-3 * self._sigma)
        finite = [c for c in warmup_costs if math.isfinite(c)]
        self._mean = left_sum(finite) / len(finite) if finite else 0.0
        # Start near-infinite: acceptance starts at ~1 and the adaptive
        # rate takes over immediately.
        self._inverse_temperature = 1.0 / (50.0 * self._sigma)

    def record(self, cost: float, accepted: bool) -> None:
        if self._inverse_temperature == 0.0:
            raise ConfigurationError("record() called before begin()")
        w = self.smoothing
        if math.isfinite(cost):
            self._mean = (1 - w) * self._mean + w * cost
            deviation = abs(cost - self._mean)
            self._sigma = max((1 - w) * self._sigma + w * deviation, self._sigma_floor)
        self._alpha = (1 - w) * self._alpha + w * (1.0 if accepted else 0.0)
        rate = self.lambda_rate * lam_quality_factor(self._alpha) / self._sigma
        self._inverse_temperature += rate

    @property
    def temperature(self) -> float:
        if self._inverse_temperature == 0.0:
            return math.inf
        return 1.0 / self._inverse_temperature

    @property
    def acceptance_estimate(self) -> float:
        return self._alpha

    @property
    def sigma_estimate(self) -> float:
        return self._sigma

    def frozen(self) -> bool:
        return self._alpha < 0.01


class ModifiedLamSchedule(CoolingSchedule):
    """Acceptance-rate trajectory tracking (Swartz/Boyan formulation).

    The target acceptance rate over a horizon of ``n`` post-warmup
    iterations is::

        i/n < 0.15 : 0.44 + 0.56 * 560^(-i / (0.15 n))
        i/n < 0.65 : 0.44
        else       : 0.44 * 440^(-(i/n - 0.65) / 0.35)

    and the temperature is multiplied (divided) by ``adjust`` whenever
    the measured acceptance rate is above (below) target.
    """

    def __init__(self, horizon: int, adjust: float = 0.999, smoothing: float = 0.02) -> None:
        if horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if not 0 < adjust < 1:
            raise ConfigurationError("adjust must lie in (0, 1)")
        if not 0 < smoothing <= 1:
            raise ConfigurationError("smoothing must lie in (0, 1]")
        self.horizon = horizon
        self.adjust = adjust
        self.smoothing = smoothing
        self._iteration = 0
        self._alpha = 0.5
        self._temperature = math.inf

    def target_acceptance(self, iteration: int) -> float:
        frac = min(iteration / self.horizon, 1.0)
        if frac < 0.15:
            return 0.44 + 0.56 * 560.0 ** (-frac / 0.15)
        if frac < 0.65:
            return 0.44
        return 0.44 * 440.0 ** (-(frac - 0.65) / 0.35)

    def begin(self, warmup_costs: Sequence[float]) -> None:
        # Classic rule of thumb: T0 such that a typical uphill move is
        # accepted with high probability -> a multiple of the cost spread.
        self._temperature = 10.0 * _spread(warmup_costs)
        self._iteration = 0

    def record(self, cost: float, accepted: bool) -> None:
        if math.isinf(self._temperature):
            raise ConfigurationError("record() called before begin()")
        w = self.smoothing
        self._alpha = (1 - w) * self._alpha + w * (1.0 if accepted else 0.0)
        target = self.target_acceptance(self._iteration)
        if self._alpha > target:
            self._temperature *= self.adjust
        else:
            self._temperature /= self.adjust
        self._iteration += 1

    @property
    def temperature(self) -> float:
        return self._temperature

    def frozen(self) -> bool:
        return self._iteration >= self.horizon and self._alpha < 0.01


class GeometricSchedule(CoolingSchedule):
    """Classic tuned schedule: ``T = T0 * alpha^(iteration / plateau)``.

    Included as the ablation baseline; unlike the adaptive schedules it
    exposes exactly the tuning burden the paper argues against.
    """

    def __init__(
        self,
        alpha: float = 0.95,
        plateau: int = 50,
        t0: Optional[float] = None,
    ) -> None:
        if not 0 < alpha < 1:
            raise ConfigurationError("alpha must lie in (0, 1)")
        if plateau < 1:
            raise ConfigurationError("plateau must be >= 1")
        if t0 is not None and t0 <= 0:
            raise ConfigurationError("t0 must be > 0")
        self.alpha = alpha
        self.plateau = plateau
        self._t0 = t0
        self._iteration = 0
        self._temperature = math.inf

    def begin(self, warmup_costs: Sequence[float]) -> None:
        self._temperature = self._t0 if self._t0 is not None else 10.0 * _spread(warmup_costs)
        self._iteration = 0

    def record(self, cost: float, accepted: bool) -> None:
        if math.isinf(self._temperature):
            raise ConfigurationError("record() called before begin()")
        self._iteration += 1
        if self._iteration % self.plateau == 0:
            self._temperature *= self.alpha

    @property
    def temperature(self) -> float:
        return self._temperature

    def frozen(self) -> bool:
        return self._temperature < 1e-9


def make_schedule(name: str, horizon: int = 5000, **kwargs) -> CoolingSchedule:
    """Factory used by configuration files and the CLI-ish examples.

    ``name`` is one of ``"lam"`` (adaptive statistical, the paper's),
    ``"modified_lam"`` (trajectory form) or ``"geometric"``.
    """
    lowered = name.lower()
    if lowered in ("lam", "lam_delosme", "adaptive"):
        return LamDelosmeSchedule(**kwargs)
    if lowered in ("modified_lam", "trajectory"):
        return ModifiedLamSchedule(horizon=horizon, **kwargs)
    if lowered == "geometric":
        return GeometricSchedule(**kwargs)
    raise ConfigurationError(f"unknown schedule {name!r}")
