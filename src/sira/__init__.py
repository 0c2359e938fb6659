"""Simulation and numerics toolkit for two AI-regulation mechanisms.

Reserve thresholding admits any agent willing to pay a fixed clearing
price for a mandated safety level. SIRA (safety-incentivized regulatory
auction) reuses the same clearing price as the floor of an all-pay
contest for a premium award, which pulls bids, and therefore purchased
safety, above the floor. The package provides the value model and the
derived premium-value distribution, exact equilibrium bidding, the two
auction engines (SIRA's over one or more contest rounds), and an
experiment harness with a command-line interface.
"""

from .errors import ConfigError, DomainError, NumericalError, SiraError
from .quadrature import adaptive_simpson
from .value_model import (
    PREMIUM_MAX,
    AgentValuation,
    PremiumValueDistribution,
    SafetyCostModel,
    ValueFamily,
    beta22_cdf,
    beta22_ppf,
    sample_scaling_factors,
    sample_total_values,
    sample_valuations,
)
from .strategy import (
    Decision,
    P_EPS_MAX,
    P_EPS_MIN,
    cap_bid,
    decide,
    reserve_threshold_bid,
    sira_bid,
    sira_bid_generic,
)
from .mechanism import (
    AuctionConfig,
    AuctionReport,
    PairingMode,
    run_repeated_sira,
    run_reserve_threshold,
    run_sira,
)
from .experiments import (
    BidCrosscheck,
    DeviationSweepResult,
    DistributionValidation,
    EquilibriumCrosscheck,
    ThresholdSweepResult,
    closed_form_vs_quadrature,
    deviation_sweep,
    equilibrium_crosscheck,
    threshold_sweep,
    validate_product_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SiraError",
    "ConfigError",
    "DomainError",
    "NumericalError",
    "adaptive_simpson",
    "PREMIUM_MAX",
    "ValueFamily",
    "SafetyCostModel",
    "AgentValuation",
    "PremiumValueDistribution",
    "beta22_cdf",
    "beta22_ppf",
    "sample_total_values",
    "sample_scaling_factors",
    "sample_valuations",
    "P_EPS_MIN",
    "P_EPS_MAX",
    "Decision",
    "cap_bid",
    "sira_bid",
    "sira_bid_generic",
    "reserve_threshold_bid",
    "decide",
    "PairingMode",
    "AuctionConfig",
    "AuctionReport",
    "run_reserve_threshold",
    "run_sira",
    "run_repeated_sira",
    "DeviationSweepResult",
    "ThresholdSweepResult",
    "DistributionValidation",
    "BidCrosscheck",
    "EquilibriumCrosscheck",
    "deviation_sweep",
    "threshold_sweep",
    "validate_product_distribution",
    "closed_form_vs_quadrature",
    "equilibrium_crosscheck",
]
