"""Rights-distribution mechanisms and the axiom-verification harness.

A distribution mechanism maps (offered volume V, claim vector D) to a rights
vector that (1) sums to V, (2) is non-decreasing in a buyer's own claim and
(3) non-decreasing in V. Four families ship: proportional, contested
garment, rank-canonical and weighted mixtures of canonicals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .core import CONSERVATION_TOL, EQ_TOL, water_level
from .errors import ConfigError


def claim_rank_order(claims: Sequence[float]) -> list[int]:
    """Buyer indices ordered by descending claim, ties broken by the lower
    buyer index (ties are broken arbitrarily but consistently)."""
    return sorted(range(len(claims)), key=lambda i: (-float(claims[i]), i))


def proportional_rule(total_volume: float, claims: Sequence[float]) -> list[float]:
    """Rights proportional to claims.

    >>> proportional_rule(1.0, [1.0, 0.75, 0.125])
    [0.5333333333333333, 0.4, 0.06666666666666667]

    With an all-zero claim vector the volume is split equally so that the
    allocation still sums to the volume.
    """
    _check_inputs(total_volume, claims)
    total_claim = sum(claims)
    if total_claim <= 0.0:
        return [total_volume / len(claims) for _ in claims]
    return [d * total_volume / total_claim for d in claims]


def contested_garment_rule(total_volume: float, claims: Sequence[float]) -> list[float]:
    """Talmud division of ``total_volume`` among claimants.

    Think of communicating vessels: below half the total claim, awards rise
    together capped at half-claims; between half and full total claim,
    losses are shared the same way; beyond the total claim everyone is made
    whole and the surplus is split equally. The level is found by a
    breakpoint walk, not iteration, so regime boundaries are exact.

    >>> contested_garment_rule(1.0, [1.0, 0.75, 0.125])
    [0.5625, 0.375, 0.0625]
    """
    _check_inputs(total_volume, claims)
    d = [float(c) for c in claims]
    n = len(d)
    total_claim = sum(d)
    half_claims = [c / 2.0 for c in d]
    half_total = total_claim / 2.0
    if total_volume <= half_total:
        lam = water_level(half_claims, total_volume)
        return [min(h, lam) for h in half_claims]
    if total_volume <= total_claim:
        mu = water_level(half_claims, total_claim - total_volume)
        return [d[i] - min(half_claims[i], mu) for i in range(n)]
    surplus = (total_volume - total_claim) / n
    return [c + surplus for c in d]


def canonical_rule(total_volume: float, claims: Sequence[float], rank: int) -> list[float]:
    """All rights to the buyer with the ``rank``-th largest claim (1-based)."""
    return weighted_rule(total_volume, claims, ((1.0, rank),))


def weighted_rule(
    total_volume: float,
    claims: Sequence[float],
    components: Sequence[tuple[float, int]],
) -> list[float]:
    """Convex combination of canonical allocations, component-wise.

    ``components`` is a sequence of (weight, rank) pairs with weights in
    [0, 1] summing to 1, checked as ``DistributionMechanism`` checks them.
    """
    _check_inputs(total_volume, claims)
    return _weighted_rule(total_volume, claims, _check_components(components))


def _weighted_rule(
    total_volume: float,
    claims: Sequence[float],
    components: tuple[tuple[float, int], ...],
) -> list[float]:
    """``weighted_rule`` of inputs and components already checked; only
    the ranks are checked against the number of claims."""
    out = [0.0] * len(claims)
    order = claim_rank_order(claims)
    for alpha, rank in components:
        if not 1 <= rank <= len(claims):
            raise ConfigError(f"rank {rank} out of range for {len(claims)} buyers")
        out[order[rank - 1]] += alpha * float(total_volume)
    return out


def _check_inputs(total_volume: float, claims: Sequence[float]) -> None:
    if len(claims) == 0:
        raise ConfigError("at least one buyer is required to distribute rights")
    if total_volume < 0.0:
        raise ConfigError("offered volume must be non-negative")
    if any(float(c) < 0.0 for c in claims):
        raise ConfigError("claims must be non-negative")


def _check_components(components: Sequence[tuple[float, int]]) -> tuple[tuple[float, int], ...]:
    """``components`` as a tuple of (float weight, rank) pairs. Each is a
    pair of a number and a rank, an ``int`` (not a ``bool``) of at least 1,
    and the weights lie in [0, 1] and sum to 1; anything else is a
    ``ConfigError`` that names the bad component or rank."""
    try:
        components = tuple(components)
    except TypeError:
        raise ConfigError(
            f"weighted components must be (weight, rank) pairs, got {components!r}"
        ) from None
    pairs = []
    for component in components:
        try:
            alpha, rank = component
            alpha = float(alpha)
        except (TypeError, ValueError):
            raise ConfigError(
                f"weighted component {component!r} is not a (weight, rank) pair"
            ) from None
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
            raise ConfigError(
                f"rank must be an integer of at least 1, got {rank!r} in component {component!r}"
            )
        pairs.append((alpha, rank))
    if not pairs:
        raise ConfigError("weighted mechanism needs at least one component")
    weights = [alpha for alpha, _ in pairs]
    # spelled so that NaN, which fails every comparison, is out of range
    if any(not 0.0 <= w <= 1.0 for w in weights):
        raise ConfigError("weighted coefficients must lie in [0, 1]")
    if abs(sum(weights) - 1.0) > EQ_TOL:
        raise ConfigError(f"weighted coefficients must sum to 1, got {sum(weights)!r}")
    return tuple(pairs)


# the parameter of each rank-based kind; the others take none
TAKES = {"canonical": "a rank", "weighted": "components"}


@dataclass(frozen=True)
class DistributionMechanism:
    """Descriptor of a rights-distribution rule.

    ``kind`` is one of "proportional", "contested_garment", "weighted" (with
    ``components`` of (weight, rank)) or "canonical" (with ``rank``), which
    is weighted with the one component (1.0, rank) and stores it so. Every
    rank is an integer (not a bool) of at least 1, and a kind takes no
    parameter it does not name; anything else is a ``ConfigError``.

    >>> DistributionMechanism.canonical(2).components
    ((1.0, 2),)
    """

    kind: str
    rank: int | None = None
    components: tuple[tuple[float, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("proportional", "contested_garment", *TAKES):
            raise ConfigError(f"unknown mechanism kind {self.kind!r}")
        rank, components = self.rank, self.components
        if self.kind == "canonical":
            # stored as weighted with one component, a form it accepts again
            # so that ``dataclasses.replace`` works; other components fail
            # the test below
            stored = ((1.0, rank),)
            rank, components = (None, stored) if components in (None, stored) else (rank, None)
        if rank is not None or (components is None) == (self.kind in TAKES):
            raise ConfigError(
                f"{self.kind} mechanism takes {TAKES.get(self.kind, 'no parameter')}, "
                f"got rank={self.rank!r} and components={self.components!r}"
            )
        if components is not None:
            object.__setattr__(self, "components", _check_components(components))

    @classmethod
    def proportional(cls) -> "DistributionMechanism":
        return cls("proportional")

    @classmethod
    def contested_garment(cls) -> "DistributionMechanism":
        return cls("contested_garment")

    @classmethod
    def canonical(cls, rank: int) -> "DistributionMechanism":
        return cls("canonical", rank=rank)

    @classmethod
    def weighted(cls, components: Sequence[tuple[float, int]]) -> "DistributionMechanism":
        return cls("weighted", components=components)

    def allocate(self, total_volume: float, claims: Sequence[float]) -> list[float]:
        if self.kind == "proportional":
            return proportional_rule(total_volume, claims)
        if self.kind == "contested_garment":
            return contested_garment_rule(total_volume, claims)
        # ``__post_init__`` checked the components
        _check_inputs(total_volume, claims)
        return _weighted_rule(total_volume, claims, self.components)  # type: ignore[arg-type]

    def label(self) -> str:
        if self.kind == "canonical":
            return f"canonical({self.rank})"
        if self.kind == "weighted":
            return "weighted(" + ", ".join(f"{a:g}@{n}" for a, n in self.components) + ")"
        return self.kind


def allocate(
    mech: "DistributionMechanism | Callable[[float, Sequence[float]], Sequence[float]]",
    total_volume: float,
    claims: Sequence[float],
) -> list[float]:
    """Dispatch to the mechanism; also accepts a bare callable so broken
    mechanisms can be fed to the verification harness as negative controls."""
    if isinstance(mech, DistributionMechanism):
        return mech.allocate(total_volume, claims)
    return [float(x) for x in mech(total_volume, claims)]


@dataclass(frozen=True)
class AxiomFailure:
    axiom: int
    volume: float
    claims: tuple[float, ...]
    detail: str


@dataclass(frozen=True)
class AxiomReport:
    mechanism: str
    samples: int
    failures: tuple[AxiomFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL ({len(self.failures)} counterexamples)"
        return f"{self.mechanism}: {self.samples} samples -> {status}"


def verify_axioms(mech, samples: int = 1000, rng_seed: int = 0) -> AxiomReport:
    """Sample random (V, D) instances and perturbed variants; check the three
    distribution-mechanism axioms.

    Axiom 1 (volume balance, within ``CONSERVATION_TOL`` relative to V) is
    checked on every draw; axioms 2 and 3 (monotonicity in own claim and in
    volume, within ``EQ_TOL``) are checked as ordered pairs against downward
    perturbations. The first 10 counterexamples are reported.
    """
    import numpy as np

    if samples < 1:
        raise ConfigError("samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    min_buyers = max([2] + [n for _, n in getattr(mech, "components", None) or ()])
    label = mech.label() if isinstance(mech, DistributionMechanism) else getattr(
        mech, "__name__", repr(mech)
    )

    failures: list[AxiomFailure] = []

    def note(axiom: int, volume: float, claims, detail: str) -> None:
        if len(failures) < 10:
            failures.append(AxiomFailure(axiom, volume, tuple(claims), detail))

    for _ in range(samples):
        nb = int(rng.integers(min_buyers, min_buyers + 5))
        volume = float(rng.uniform(0.0, 2.0))
        claims = rng.uniform(0.0, 1.0, nb)
        claims[rng.uniform(0.0, 1.0, nb) < 0.1] = 0.0
        claims = [float(c) for c in claims]

        try:
            rights = allocate(mech, volume, claims)
        except Exception as exc:  # a crash is a failure of the mechanism
            note(0, volume, claims, f"allocation raised {exc!r}")
            continue

        if abs(sum(rights) - volume) > CONSERVATION_TOL * max(1.0, volume):
            note(1, volume, claims, f"sum(rights)={sum(rights)!r} != V={volume!r}")
        if any(r < -EQ_TOL for r in rights):
            note(1, volume, claims, f"negative right in {rights!r}")

        # axiom 2: shrink one buyer's claim, their right must not grow
        b = int(rng.integers(0, nb))
        lowered = list(claims)
        lowered[b] = claims[b] * float(rng.uniform(0.0, 1.0))
        lowered_rights = allocate(mech, volume, lowered)
        if lowered_rights[b] > rights[b] + EQ_TOL:
            note(
                2,
                volume,
                claims,
                f"buyer {b}: claim {claims[b]!r}->{lowered[b]!r} "
                f"raised right {rights[b]!r}->{lowered_rights[b]!r}",
            )

        # axiom 3: shrink the volume, nobody's right may grow
        volume_low = volume * float(rng.uniform(0.0, 1.0))
        low_rights = allocate(mech, volume_low, claims)
        for j in range(nb):
            if low_rights[j] > rights[j] + EQ_TOL:
                note(
                    3,
                    volume,
                    claims,
                    f"buyer {j}: V {volume!r}->{volume_low!r} "
                    f"raised right {rights[j]!r}->{low_rights[j]!r}",
                )
                break

    return AxiomReport(label, samples, tuple(failures))
