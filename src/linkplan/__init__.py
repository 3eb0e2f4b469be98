"""Outage probability and ergodic rate of HARQ-assisted RF-FSO networks.

Analytic evaluators (Gaussian log-rate surrogates, short-codeword bounds)
plus an independent Monte Carlo engine, composed over multi-hop routes and
multi-route mesh networks, with a CSV-emitting CLI on top.
"""

__version__ = "0.1.0"

from .analysis import (
    FSO_CLT,
    FSO_PRODUCT_BOUND,
    MONTE_CARLO,
    RF_JENSEN_LOWER,
    RF_JENSEN_UPPER,
    RF_LINEARIZED,
    RF_LOW_SNR,
    RF_PIECEWISE,
    RF_SINGLE_SHOT,
    ApproximationInvalidError,
    FsoHopParams,
    InfeasibleError,
    OutageEstimate,
    RfHopParams,
    fso_ergodic_rate,
    fso_moments,
    fso_outage_clt,
    fso_outage_product_bound,
    hop_ergodic_rate,
    hop_outage,
    min_rf_antennas,
    rf_ergodic_rate,
    rf_moments_low_snr,
    rf_outage_bounds_short,
    rf_outage_linearized,
    rf_outage_low_snr,
    rf_outage_piecewise,
    rf_outage_single_shot,
)
from .channel import (
    FsoExponential,
    FsoGammaGamma,
    GaussianApprox,
    RicianFading,
    clt_sum_gain_params,
)
from .config import ConfigError, ScenarioConfig, load_config, parse_config
from .hardware import PaConfig, SaturationError, effective_efficiency, output_power
from .network import (
    MeshNetwork,
    Route,
    mesh_ergodic_rate,
    mesh_outage,
    route_ergodic_rate,
    route_outage,
)
from .simulate import (
    BracketError,
    McConfig,
    McPrecisionError,
    required_snr,
    simulate_fso_hop,
    simulate_mesh,
    simulate_rf_hop,
    simulate_route,
)

__all__ = [name for name in dir() if not name.startswith("_")]
