"""Exception types raised across the package."""


class RightsMarketError(Exception):
    """Base class for all package errors."""


class NegativeQuantityError(RightsMarketError, ValueError):
    """A Good/Money/Right amount was constructed with a negative value."""


class ConfigError(RightsMarketError, ValueError):
    """A market configuration violates a structural requirement."""


class PricingError(RightsMarketError):
    """The implicit-price equation has no admissible solution."""


class ClearingError(RightsMarketError):
    """The offers or bids handed to the clearing do not match its trader
    lists. Clearing itself always completes: its loops end by construction
    (see ``rightsmarket.mechanism``)."""


class ConservationError(RightsMarketError):
    """A per-round accounting balance exceeded the configured tolerance."""


class SimulationError(RightsMarketError):
    """A trace aborted mid-run.

    Attributes:
        round_index: the round at which the failure occurred.
    """

    def __init__(self, round_index: int, message: str):
        super().__init__(f"round {round_index}: {message}")
        self.round_index = round_index


class ScenarioError(RightsMarketError, ValueError):
    """A scenario file could not be parsed or validated."""
