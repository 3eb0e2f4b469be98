"""Power-amplifier model: consumed power -> radiated power per antenna.

All powers are linear, noise-normalized values; dB conversion happens only at
the CLI boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


class SaturationError(ValueError):
    """The configured drive would push the PA beyond its maximum output."""


@dataclass(frozen=True)
class PaConfig:
    epsilon: float   # maximum efficiency, reached at p_max (dimensionless in (0,1])
    theta_pa: float  # PA-class exponent in [0,1)
    p_max: float     # maximum output power (linear, noise-normalized)
    p_cons: float    # consumed power per antenna (linear, noise-normalized)

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must be in (0,1], got {self.epsilon}")
        if not (0.0 <= self.theta_pa < 1.0):
            raise ValueError(f"theta_pa must be in [0,1), got {self.theta_pa}")
        for name in ("p_max", "p_cons"):
            if not getattr(self, name) > 0:  # NaN fails this too
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        p = self._raw_output()
        if not p > 0.0:
            # theta_pa > 0 against an infinite p_max, or an output that
            # underflows: every rate and outage would divide by it
            raise ValueError(
                f"output {p:g} at p_cons={self.p_cons:g} (epsilon={self.epsilon:g}, "
                f"theta_pa={self.theta_pa:g}, p_max={self.p_max:g}): "
                "the PA would radiate nothing")
        if p > self.p_max * (1.0 + 1e-12):
            raise SaturationError(
                f"drive p_cons={self.p_cons} would require output {p:.6g} "
                f"beyond p_max={self.p_max:.6g}"
            )

    def _raw_output(self):
        # P / P_cons = eps (P / P_max)^theta  =>  P = (eps P_cons / P_max^theta)^(1/(1-theta))
        t = self.theta_pa
        return (self.epsilon * self.p_cons / self.p_max**t) ** (1.0 / (1.0 - t))

    @staticmethod
    def ideal(p_cons: float) -> "PaConfig":
        """Lossless PA: radiated power equals consumed power."""
        return PaConfig(epsilon=1.0, theta_pa=0.0, p_max=math.inf, p_cons=p_cons)

    def with_drive(self, p_cons: float) -> "PaConfig":
        """Same amplifier, different drive (used by SNR sweeps)."""
        return PaConfig(self.epsilon, self.theta_pa, self.p_max, p_cons)


def output_power(pa: PaConfig) -> float:
    """Radiated power per antenna for the configured drive (the constructor
    has already rejected a drive beyond saturation)."""
    return min(pa._raw_output(), pa.p_max)


def effective_efficiency(pa: PaConfig) -> float:
    """Realized efficiency eps*(P/p_max)^theta at the configured drive."""
    p = output_power(pa)
    return pa.epsilon * (p / pa.p_max) ** pa.theta_pa
