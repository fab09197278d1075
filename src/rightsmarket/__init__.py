"""Deterministic simulator and analysis toolkit for repeated markets with
tradable buying rights.

A central authority distributes per-round buying rights for a scarce good;
traders then exchange the good, the rights and money. The package computes
the greedy equilibrium prices, simulates trading under several
rights-distribution mechanisms and supply schedules, measures buyer
frustration against free-market and myopic baselines, and audits the
equilibrium and convergence claims empirically.
"""

from .core import (
    BuyerSpec,
    BuyerState,
    MarketConfig,
    MarketState,
    SellerSpec,
    SellerState,
    apply_transition,
    consumed_utility,
    initial_state,
    non_negative,
)
from .engine import (
    BidAdjustment,
    RoundRecord,
    SupplySchedule,
    Trace,
    frustration,
    generate_dirichlet_scenario,
    run,
)
from .mechanism import BuyerBid, ClearingResult, Rejection, SellerOffer, clear, useful_useless_split
from .pricing import (
    canonical_closed_form,
    canonical_lower_bound,
    free_market_clearing_price,
    greedy_buyer_bid,
    greedy_buyer_bids,
    solve_implicit_price,
)
from .rights import (
    DistributionMechanism,
    allocate,
    contested_garment_rule,
    proportional_rule,
    verify_axioms,
)

__version__ = "0.1.0"

__all__ = [
    "BidAdjustment",
    "BuyerBid",
    "BuyerSpec",
    "BuyerState",
    "ClearingResult",
    "DistributionMechanism",
    "MarketConfig",
    "MarketState",
    "Rejection",
    "RoundRecord",
    "SellerOffer",
    "SellerSpec",
    "SellerState",
    "SupplySchedule",
    "Trace",
    "allocate",
    "apply_transition",
    "canonical_closed_form",
    "canonical_lower_bound",
    "clear",
    "consumed_utility",
    "contested_garment_rule",
    "free_market_clearing_price",
    "frustration",
    "generate_dirichlet_scenario",
    "greedy_buyer_bid",
    "greedy_buyer_bids",
    "initial_state",
    "non_negative",
    "proportional_rule",
    "run",
    "solve_implicit_price",
    "useful_useless_split",
    "verify_axioms",
]
