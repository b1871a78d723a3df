"""Reliability quantiles, EV-fleet statistics and robust row margins.

The planning model treats forecast errors with a hybrid scheme: a
deterministic row ``lhs <= j`` built from forecasts is tightened by a
protection term ``phi * omega * j`` and relaxed by an infeasibility tolerance
``mu * max(1, |j|)``.  ``omega`` is the standard-normal quantile at the
selected reliability level: a constraint protected at level ``omega`` holds
with probability ``Phi(omega)``, so requiring failure probability ``R`` gives
``omega = Phi^-1(1 - R)``.

The tighten term is *signed* (it scales the forecast itself, not its
magnitude), so a negative forecast is relaxed rather than tightened as
``phi`` grows.  Callers who need monotone behaviour should check forecast
signs; the shipped planning cases have nonnegative net demands everywhere.

EV connection counts follow a binomial model (each of ``n`` vehicles plugs in
independently with probability ``rho``); for fleet sizes of interest the
normal approximation with matched mean and standard deviation is used
downstream, and :func:`binomial_pmf` exists mainly to validate that
approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# Acklam's rational approximation to the standard normal quantile.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_cdf(x: float) -> float:
    """Standard normal distribution function, accurate in both tails."""
    return 0.5 * math.erfc(-x / _SQRT2)


def inverse_normal_cdf(p: float) -> float:
    """Standard normal quantile by Acklam's approximation plus Halley polish.

    The rational approximation alone is good to ~1.2e-9; two Halley steps
    against the erfc-based CDF push the result to full double precision.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    else:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    for _ in range(2):
        err = normal_cdf(x) - p
        u = err * _SQRT2PI * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


def omega_from_reliability(reliability: float) -> float:
    """Protection level ``omega = Phi^-1(1 - R)`` for failure probability R."""
    if not 0.0 < reliability < 1.0:
        raise ValueError(
            f"reliability must lie in (0, 1), got {reliability}")
    return inverse_normal_cdf(1.0 - reliability)


@dataclass(frozen=True)
class RobustParams:
    """Protection settings for robustified rows.

    ``phi`` scales the protection term, ``mu`` the infeasibility tolerance,
    ``reliability`` the acceptable failure probability.  ``omega`` is derived
    on construction.  Reliability is capped at 0.5 so that ``omega >= 0`` and
    robustification never loosens a constraint.
    """

    phi: float
    mu: float
    reliability: float
    omega: float = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.phi < math.inf:
            raise ValueError(f"phi must be finite and >= 0, got {self.phi}")
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if not 0.0 < self.reliability <= 0.5:
            raise ValueError(
                f"reliability must lie in (0, 0.5], got {self.reliability}")
        object.__setattr__(self, "omega", omega_from_reliability(self.reliability))


def binomial_pmf(n: int, x: int, rho: float) -> float:
    """Probability that exactly ``x`` of ``n`` vehicles are connected.

    Evaluated in log space so fleets of hundreds of vehicles do not overflow
    the factorials.  The computation is canonicalized to ``rho <= 0.5`` so the
    mirror identity pmf(n, x, rho) == pmf(n, n-x, 1-rho) holds exactly
    whenever ``1 - rho`` is itself exact in floating point.
    """
    if n < 0:
        raise ValueError(f"fleet size must be >= 0, got {n}")
    if not 0 <= x <= n:
        raise ValueError(f"connection count must lie in [0, {n}], got {x}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"connection probability must lie in [0, 1], got {rho}")
    if rho > 0.5:
        rho, x = 1.0 - rho, n - x
    if rho == 0.0:
        return 1.0 if x == 0 else 0.0
    q = 1.0 - rho
    log_comb = math.lgamma(n + 1) - (math.lgamma(x + 1) + math.lgamma(n - x + 1))
    log_terms = x * math.log(rho) + (n - x) * math.log(q)
    return math.exp(log_comb + log_terms)


@dataclass(frozen=True)
class NormalApprox:
    """Normal surrogate for a binomial connection count."""

    mean: float
    std_dev: float

    def __post_init__(self):
        if not 0.0 <= self.std_dev < math.inf:
            raise ValueError(f"std_dev must be finite and >= 0, "
                             f"got {self.std_dev}")


def binomial_normal_approx(n: int, rho: float) -> NormalApprox:
    """Matched-moment normal surrogate: mean n*rho, std sqrt(n*rho*(1-rho))."""
    if n < 0:
        raise ValueError(f"fleet size must be >= 0, got {n}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"connection probability must lie in [0, 1], got {rho}")
    return NormalApprox(mean=n * rho, std_dev=math.sqrt(n * rho * (1.0 - rho)))


def robust_margin(forecast: float, params: RobustParams) -> tuple[float, float]:
    """Tighten/relax pair for one forecast value, in the forecast's own unit.

    Returns ``(tighten, relax)`` with ``tighten = phi * omega * forecast``
    (signed) and ``relax = mu * max(1, |forecast|)``.  A robustified
    greater-than row reads ``lhs >= forecast + tighten - relax``.
    """
    tighten = params.phi * params.omega * forecast
    relax = params.mu * max(1.0, abs(forecast))
    return tighten, relax
