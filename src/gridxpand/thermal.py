"""Conductor heat-balance physics for dynamic thermal line rating.

Everything here works per unit length of conductor (W/m); callers pass the
line's per-meter resistance.  The balance pits ohmic and solar gains
against forced convection (two correlation branches, the larger governs)
and radiation.  The exact losses are written once, in
:func:`forced_convection` and :func:`radiation_loss`; the breakdown the
plan audit reads, the steady-state temperature for a given current and the
ampacity for a given temperature ceiling all call them.  Beside the exact
physics sits the log-domain linearization of the radiation term that the
MILP consumes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linearize import CERT_GRID, Segment, fit_line_minimax

TEMPERATURE_CAP = 2000.0          # bisection safety ceiling, K
STEADY_STATE_TOL = 1e-6           # K


@dataclass(frozen=True)
class ConductorSpec:
    """Datasheet constants for one conductor type.

    The balance reads the per-meter resistance from the line
    (``LineSpec.resistance_at_tmax``), not from this record.
    ``resistance_ref``, ``temperature_ref`` and ``thermal_resistivity``
    are read from case files and validated, but no model reads them; the
    benchmark's random instances still pass them.
    """

    diameter: float               # m
    air_density: float            # kg/m^3
    air_viscosity: float          # kg/(m*s)
    thermal_conductivity: float   # W/(m*K)
    wind_angle_coeff: float       # dimensionless
    emissivity: float
    radiation_coeff: float        # W/(m*K^4)
    resistance_ref: float         # ohm, whole line
    temperature_ref: float        # K
    thermal_resistivity: float    # 1/K in R_ref*(1 + h*(T - T_ref))

    def __post_init__(self):
        positives = ("diameter", "air_density", "air_viscosity",
                     "thermal_conductivity", "wind_angle_coeff",
                     "radiation_coeff", "resistance_ref", "temperature_ref")
        for name in positives:
            if getattr(self, name) <= 0:
                raise ValueError(f"conductor {name} must be > 0, "
                                 f"got {getattr(self, name)}")
        if not 0 < self.emissivity <= 1:
            raise ValueError(f"emissivity must be in (0, 1], got {self.emissivity}")
        if self.thermal_resistivity < 0:
            raise ValueError("thermal resistivity must be >= 0")


@dataclass(frozen=True)
class WeatherRecord:
    """Ambient conditions seen by one line in one period."""

    ambient_temp: float           # K
    wind_speed: float             # m/s
    solar_gain: float             # W/m
    radiation_coeff: float        # W/(m*K^4)

    def __post_init__(self):
        if self.ambient_temp <= 0:
            raise ValueError(f"ambient temperature must be > 0 K, "
                             f"got {self.ambient_temp}")
        if self.wind_speed < 0:
            raise ValueError(f"wind speed must be >= 0, got {self.wind_speed}")
        if self.solar_gain < 0:
            raise ValueError(f"solar gain must be >= 0, got {self.solar_gain}")
        if self.radiation_coeff <= 0:
            raise ValueError(f"radiation coefficient must be > 0, "
                             f"got {self.radiation_coeff}")


@dataclass(frozen=True)
class ConvectionCoeffs:
    k_prime: float                # W/(m*K)
    k_double_prime: float         # W/(m*K)
    reynolds: float

    @property
    def governing(self) -> float:
        """Film coefficient of the branch that carries the heat."""
        return max(self.k_prime, self.k_double_prime)


@dataclass(frozen=True)
class HbeBreakdown:
    """One evaluated heat balance; residual is gains minus losses.

    The plan audit reports :attr:`residual` for every built line-period.
    """

    ohmic: float
    solar: float
    convection: float
    radiation: float
    temperature: float

    @property
    def residual(self) -> float:
        return (self.ohmic + self.solar) - (self.convection + self.radiation)


def reynolds_number(diameter: float, wind_speed: float, air_density: float,
                    air_viscosity: float) -> float:
    """Dimensionless D*v*rho/nu; still air gives 0."""
    if diameter <= 0 or air_density <= 0 or air_viscosity <= 0:
        raise ValueError("diameter, air density and viscosity must be > 0")
    if wind_speed < 0:
        raise ValueError(f"wind speed must be >= 0, got {wind_speed}")
    return diameter * wind_speed * air_density / air_viscosity


def convection_coefficients(wind_angle_coeff: float, reynolds: float,
                            thermal_conductivity: float) -> ConvectionCoeffs:
    """Film coefficients of the two forced-convection correlations.

    The low-Reynolds branch ``A*(1.01 + 1.35*Re^0.52)*gamma`` and the
    high-Reynolds branch ``A*0.754*Re^0.5*gamma``; whichever is larger
    governs the balance.
    """
    if wind_angle_coeff <= 0 or thermal_conductivity <= 0:
        raise ValueError("wind-angle coefficient and conductivity must be > 0")
    if reynolds < 0:
        raise ValueError(f"Reynolds number must be >= 0, got {reynolds}")
    k_prime = wind_angle_coeff * (1.01 + 1.35 * reynolds ** 0.52) * thermal_conductivity
    k_double = wind_angle_coeff * 0.754 * reynolds ** 0.5 * thermal_conductivity
    return ConvectionCoeffs(k_prime=k_prime, k_double_prime=k_double,
                            reynolds=reynolds)


def line_convection(conductor: ConductorSpec,
                    weather: WeatherRecord) -> ConvectionCoeffs:
    re = reynolds_number(conductor.diameter, weather.wind_speed,
                         conductor.air_density, conductor.air_viscosity)
    return convection_coefficients(conductor.wind_angle_coeff, re,
                                   conductor.thermal_conductivity)


def _check_above_ambient(temperature: float, ambient_temp: float):
    if temperature < ambient_temp:
        raise ValueError(
            f"conductor temperature {temperature} K below ambient "
            f"{ambient_temp} K is outside the model")


def forced_convection(film_coeff: float, temperature: float,
                      ambient_temp: float) -> float:
    _check_above_ambient(temperature, ambient_temp)
    return film_coeff * (temperature - ambient_temp)


def radiation_loss(emissivity: float, radiation_coeff: float,
                   temperature: float, ambient_temp: float) -> float:
    if ambient_temp <= 0:
        raise ValueError(f"ambient temperature must be > 0 K, got {ambient_temp}")
    _check_above_ambient(temperature, ambient_temp)
    return emissivity * radiation_coeff * (temperature ** 4 - ambient_temp ** 4)


def heat_balance_breakdown(current: float, temperature: float,
                           weather: WeatherRecord, conductor: ConductorSpec,
                           r_per_m: float) -> HbeBreakdown:
    """Evaluate every balance term at a given operating point."""
    coeffs = line_convection(conductor, weather)
    return HbeBreakdown(
        ohmic=current * current * r_per_m,
        solar=weather.solar_gain,
        convection=forced_convection(coeffs.governing, temperature,
                                     weather.ambient_temp),
        radiation=radiation_loss(conductor.emissivity, weather.radiation_coeff,
                                 temperature, weather.ambient_temp),
        temperature=temperature)


def steady_state_temperature(current: float, weather: WeatherRecord,
                             conductor: ConductorSpec,
                             r_per_m: float) -> float:
    """Temperature at which losses absorb the ohmic and solar gains.

    The loss side is strictly increasing in temperature, so the root is
    unique; plain bisection on [ambient, 2000 K] reaches
    :data:`STEADY_STATE_TOL` kelvin.
    """
    if current < 0:
        raise ValueError(f"current must be >= 0, got {current}")
    if r_per_m <= 0:
        raise ValueError(f"per-meter resistance must be > 0, got {r_per_m}")
    gain = current * current * r_per_m + weather.solar_gain
    ambient = weather.ambient_temp
    if gain == 0.0:
        return ambient
    k = line_convection(conductor, weather).governing

    def losses(t: float) -> float:
        return (forced_convection(k, t, ambient)
                + radiation_loss(conductor.emissivity,
                                 weather.radiation_coeff, t, ambient))

    if losses(TEMPERATURE_CAP) < gain:
        raise ValueError(
            f"no steady state below {TEMPERATURE_CAP} K for current {current} A")
    lo, hi = ambient, TEMPERATURE_CAP
    while hi - lo > STEADY_STATE_TOL:
        mid = 0.5 * (lo + hi)
        if losses(mid) < gain:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ampacity(t_max: float, weather: WeatherRecord, conductor: ConductorSpec,
             r_per_m: float) -> float:
    """Largest current that holds the conductor at or below ``t_max``.

    ``r_per_m`` should be the resistance evaluated at ``t_max`` so the limit
    is conservative.  Returns 0 when solar gain alone already exceeds the
    losses available at ``t_max``.
    """
    if r_per_m <= 0:
        raise ValueError(f"per-meter resistance must be > 0, got {r_per_m}")
    t_env = weather.ambient_temp
    k = line_convection(conductor, weather).governing
    headroom = (forced_convection(k, t_max, t_env)
                + radiation_loss(conductor.emissivity,
                                 weather.radiation_coeff, t_max, t_env)
                - weather.solar_gain)
    if headroom <= 0:
        return 0.0
    return math.sqrt(headroom / r_per_m)


# ---------------------------------------------------------------------------
# Log-domain radiation fit


@dataclass(frozen=True)
class RadiationLogFit:
    """Linear link between radiated power and temperature.

    Built by matching two one-segment fits of the natural log: ``temp_fit``
    approximates ``ln T`` over the temperature window and ``flux_fit``
    approximates ``ln z`` over the image ``z = eps*Kr*T^4``.  Equating the
    fitted logs of both sides of ``z = eps*Kr*T^4`` yields an affine
    surrogate for the radiation term whose worst absolute deviation over the
    window is ``band`` (W/m, independent of ambient temperature because the
    ambient fourth-power offset cancels).
    """

    temp_fit: Segment
    flux_fit: Segment
    emissivity: float
    radiation_coeff: float
    t_lo: float
    t_hi: float
    band: float

    @property
    def link_slope(self) -> float:
        return 4.0 * self.temp_fit.slope / self.flux_fit.slope

    def link_intercept(self, ambient_temp: float) -> float:
        eps_kr = self.emissivity * self.radiation_coeff
        core = (math.log(eps_kr) + 4.0 * self.temp_fit.intercept
                - self.flux_fit.intercept) / self.flux_fit.slope
        return core - eps_kr * ambient_temp ** 4

    def link_coefficients(self, ambient_temp: float) -> tuple[float, float]:
        """``(a, b)`` with radiation ~ a*T + b for this ambient."""
        return self.link_slope, self.link_intercept(ambient_temp)

    @property
    def max_rel_err(self) -> float:
        return max(self.temp_fit.max_rel_err, self.flux_fit.max_rel_err)


@functools.lru_cache(maxsize=256)
def radiation_log_fit(emissivity: float, radiation_coeff: float,
                      t_lo: float = 273.0,
                      t_hi: float = 373.0) -> RadiationLogFit:
    """Fit both logs and certify the assembled radiation surrogate.

    The temperature-side fit lands near slope 0.0031 for the default window;
    the flux-side window is the image of the temperature window under
    ``eps*Kr*T^4``, so its fit depends on the conductor parameters.  The
    result is frozen, so equal arguments share one memoized fit.
    """
    if not 0 < t_lo < t_hi:
        raise ValueError(f"degenerate temperature window [{t_lo}, {t_hi}]")
    if not 0 < emissivity <= 1 or radiation_coeff <= 0:
        raise ValueError("emissivity must be in (0, 1] and radiation "
                         "coefficient > 0")
    temp_fit = fit_line_minimax(np.log, t_lo, t_hi)
    eps_kr = emissivity * radiation_coeff
    z_lo, z_hi = eps_kr * t_lo ** 4, eps_kr * t_hi ** 4
    flux_fit = fit_line_minimax(np.log, z_lo, z_hi)

    # Certify the assembled link: exact eps*Kr*T^4 against its affine image.
    a = 4.0 * temp_fit.slope / flux_fit.slope
    core = (math.log(eps_kr) + 4.0 * temp_fit.intercept
            - flux_fit.intercept) / flux_fit.slope
    ts = np.linspace(t_lo, t_hi, CERT_GRID)
    band = float(np.abs(eps_kr * ts ** 4 - (a * ts + core)).max())
    return RadiationLogFit(temp_fit=temp_fit, flux_fit=flux_fit,
                           emissivity=emissivity,
                           radiation_coeff=radiation_coeff,
                           t_lo=t_lo, t_hi=t_hi, band=band)
