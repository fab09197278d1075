"""Distribution mechanisms: exact benchmark values, regimes and axioms."""

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from rightsmarket.errors import ConfigError
from rightsmarket.rights import (
    DistributionMechanism,
    _check_components,
    allocate,
    claim_rank_order,
    contested_garment_rule,
    proportional_rule,
    verify_axioms,
)

BENCH_CLAIMS = [1.0, 0.75, 0.125]

# zero claims are legal; positive ones stay clear of subnormal float noise
claim_values = st.one_of(st.just(0.0), st.floats(1e-9, 5.0))
claims_lists = st.lists(claim_values, min_size=1, max_size=8)


class TestProportional:
    def test_benchmark_allocation(self):
        rights = proportional_rule(1.0, BENCH_CLAIMS)
        assert rights[0] == pytest.approx(8 / 15, abs=1e-12)
        assert rights[1] == pytest.approx(6 / 15, abs=1e-12)
        assert rights[2] == pytest.approx(1 / 15, abs=1e-12)

    def test_zero_volume(self):
        assert proportional_rule(0.0, BENCH_CLAIMS) == [0.0, 0.0, 0.0]

    @given(claims=claims_lists, volume=st.floats(0.0, 10.0), k=st.floats(0.01, 100.0))
    def test_scale_invariant_in_claims(self, claims, volume, k):
        base = proportional_rule(volume, claims)
        scaled = proportional_rule(volume, [k * d for d in claims])
        for a, b in zip(base, scaled):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    @given(claims=claims_lists, volume=st.floats(0.0, 10.0))
    def test_sums_to_volume(self, claims, volume):
        assert math.isclose(sum(proportional_rule(volume, claims)), volume, abs_tol=1e-9)


class TestContestedGarment:
    def test_benchmark_allocation(self):
        rights = contested_garment_rule(1.0, BENCH_CLAIMS)
        assert rights[0] == pytest.approx(9 / 16, abs=1e-12)
        assert rights[1] == pytest.approx(6 / 16, abs=1e-12)
        assert rights[2] == pytest.approx(1 / 16, abs=1e-12)

    def test_half_sum_boundary_awards_half_claims(self):
        assert contested_garment_rule(1.0, [1.0, 1.0]) == [0.5, 0.5]

    def test_surplus_regime_splits_equally(self):
        rights = contested_garment_rule(1.0, [0.2, 0.15, 0.025])
        surplus = (1.0 - 0.375) / 3
        assert rights[0] == pytest.approx(0.2 + surplus, abs=1e-12)
        assert rights[1] == pytest.approx(0.15 + surplus, abs=1e-12)
        assert rights[2] == pytest.approx(0.025 + surplus, abs=1e-12)

    def test_all_zero_claims_split_equally(self):
        assert contested_garment_rule(0.9, [0.0, 0.0, 0.0]) == [0.3, 0.3, 0.3]

    def test_empty_claims_error(self):
        with pytest.raises(ConfigError):
            contested_garment_rule(1.0, [])

    @given(claims=claims_lists, volume=st.floats(0.0, 20.0))
    def test_sums_to_volume(self, claims, volume):
        rights = contested_garment_rule(volume, claims)
        assert math.isclose(sum(rights), volume, abs_tol=1e-9)
        assert all(r >= -1e-12 for r in rights)

    @given(claims=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=6), volume=st.floats(0.0, 5.0))
    def test_never_awards_more_than_claim_plus_equal_surplus(self, claims, volume):
        rights = contested_garment_rule(volume, claims)
        surplus = max(0.0, volume - sum(claims)) / len(claims)
        for r, d in zip(rights, claims):
            assert r <= d + surplus + 1e-9


class TestCanonicalAndWeighted:
    def test_canonical_rank_one_takes_everything(self):
        assert DistributionMechanism.canonical(1).allocate(1.0, BENCH_CLAIMS) == [1.0, 0.0, 0.0]

    def test_canonical_ties_break_by_lower_index(self):
        claims = [0.5, 0.5, 0.2]
        assert DistributionMechanism.canonical(1).allocate(1.0, claims) == [1.0, 0.0, 0.0]
        assert DistributionMechanism.canonical(2).allocate(1.0, claims) == [0.0, 1.0, 0.0]

    def test_canonical_rank_out_of_range(self):
        with pytest.raises(ConfigError, match="rank 4 out of range for 3 buyers"):
            DistributionMechanism.canonical(4).allocate(1.0, BENCH_CLAIMS)

    def test_rank_order(self):
        assert claim_rank_order([0.125, 1.0, 0.75]) == [1, 2, 0]

    def test_weighted_equals_canonical_decomposition(self):
        components = [(8 / 15, 1), (6 / 15, 2), (1 / 15, 3)]
        combined = DistributionMechanism.weighted(components).allocate(1.0, BENCH_CLAIMS)
        expected = [0.0, 0.0, 0.0]
        for alpha, rank in components:
            part = DistributionMechanism.canonical(rank).allocate(1.0, BENCH_CLAIMS)
            expected = [e + alpha * p for e, p in zip(expected, part)]
        for a, b in zip(combined, expected):
            assert a == pytest.approx(b, abs=1e-12)

    def test_weighted_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="must sum to 1"):
            DistributionMechanism.weighted([(0.5, 1), (0.4, 2)])

    @pytest.mark.parametrize("weight", [math.nan, -0.5, 1.5])
    def test_weights_outside_the_unit_interval_are_rejected(self, weight):
        # a NaN weight fails every comparison, so it must not pass as in range
        components = [(weight, 1), (1.0, 2)]
        with pytest.raises(ConfigError, match="must lie in"):
            DistributionMechanism.weighted(components)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_canonical_is_weighted_with_one_component(self, rank):
        mech = DistributionMechanism.canonical(rank)
        assert mech.components == ((1.0, rank),)
        assert mech.label() == f"canonical({rank})"
        one = DistributionMechanism.weighted([(1.0, rank)])
        for volume in (0.0, 5e-324, 0.3, 1.0, 7.5):
            assert mech.allocate(volume, BENCH_CLAIMS) == one.allocate(volume, BENCH_CLAIMS)
            assert mech.allocate(volume, BENCH_CLAIMS)[rank - 1] == volume

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DistributionMechanism.canonical(2.0),
            lambda: DistributionMechanism.canonical(True),
            lambda: DistributionMechanism.canonical(0),
            lambda: DistributionMechanism("canonical"),
            lambda: DistributionMechanism.weighted([(0.5, 1.5), (0.5, 2)]),
            lambda: DistributionMechanism.weighted([(0.5, True), (0.5, 2)]),
            lambda: DistributionMechanism.weighted([(0.5, 0), (0.5, 2)]),
        ],
        ids=("canonical-2.0", "canonical-True", "canonical-0", "canonical-None",
             "weighted-1.5", "weighted-True", "weighted-0"),
    )
    def test_rejects_a_rank_that_is_not_a_positive_integer(self, build):
        # a float rank was truncated or failed in round 1, True played rank
        # 1 and a weighted rank of 0 built
        with pytest.raises(ConfigError, match="rank must be an integer of at least 1"):
            build()

    def test_a_component_that_is_not_a_pair_is_named(self):
        # raised ValueError: not enough values to unpack
        with pytest.raises(ConfigError, match=r"component \(0\.5,\) is not a \(weight, rank\)"):
            DistributionMechanism.weighted([(0.5,), (0.5, 2)])

    def test_a_weight_that_is_not_a_number_is_named(self):
        # raised ValueError: could not convert string to float
        with pytest.raises(ConfigError, match=r"component \('x', 1\) is not a \(weight, rank\)"):
            DistributionMechanism.weighted([("x", 1)])

    def test_components_that_are_not_a_sequence_are_named(self):
        # raised TypeError: 'int' object is not iterable
        with pytest.raises(ConfigError, match=r"must be \(weight, rank\) pairs, got 5"):
            DistributionMechanism.weighted(5)

    def test_a_rank_that_is_not_an_integer_is_named_with_its_component(self):
        # raised TypeError: list indices must be integers or slices, not float
        components = [(0.5, 1.5), (0.5, 2)]
        match = r"rank must be an integer of at least 1, got 1\.5 in component \(0\.5, 1\.5\)"
        with pytest.raises(ConfigError, match=match):
            DistributionMechanism.weighted(components)

    @pytest.mark.parametrize(
        "mech",
        [DistributionMechanism.canonical(2), DistributionMechanism.weighted([(0.5, 1), (0.5, 3)])],
        ids=("canonical", "weighted"),
    )
    def test_allocate_does_not_check_the_components_again(self, mech, monkeypatch):
        # ``__post_init__`` checks them once, so a round's allocation does not
        want = mech.allocate(1.0, BENCH_CLAIMS)
        calls = []
        monkeypatch.setattr(
            "rightsmarket.rights._check_components",
            lambda c: calls.append(c) or _check_components(c),
        )
        built = dataclasses.replace(mech)
        assert calls == [mech.components]
        assert built.allocate(1.0, BENCH_CLAIMS) == want
        assert allocate(built, 1.0, BENCH_CLAIMS) == want
        assert calls == [mech.components]
        # the ranks are still checked against the claims
        with pytest.raises(ConfigError, match="rank 3 out of range for 2 buyers"):
            DistributionMechanism.canonical(3).allocate(1.0, [1.0, 0.5])

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("proportional", {"rank": 3}),
            ("contested_garment", {"rank": 1}),
            ("weighted", {"rank": 1, "components": ((1.0, 1),)}),
            ("proportional", {"components": ((1.0, 1),)}),
            ("contested_garment", {"components": ((1.0, 1),)}),
            ("canonical", {"rank": 2, "components": ((1.0, 1),)}),
            ("canonical", {"components": ((1.0, 1),)}),
        ],
    )
    def test_rejects_a_parameter_the_kind_does_not_take(self, kind, params):
        # ``DistributionMechanism("proportional", rank=3)`` built and did not
        # equal ``proportional()``
        with pytest.raises(ConfigError, match="mechanism takes"):
            DistributionMechanism(kind, **params)

    @pytest.mark.parametrize(
        "mech",
        [
            DistributionMechanism.proportional(),
            DistributionMechanism.canonical(2),
            DistributionMechanism.weighted([(0.5, 1), (0.5, 3)]),
        ],
        ids=lambda mech: mech.label(),
    )
    def test_replace_accepts_the_stored_form(self, mech):
        assert dataclasses.replace(mech) == mech

    def test_mechanism_descriptor_dispatch(self):
        mech = DistributionMechanism.weighted([(0.6, 1), (0.4, 2)])
        assert allocate(mech, 2.0, BENCH_CLAIMS) == mech.allocate(2.0, BENCH_CLAIMS)
        assert mech.allocate(2.0, BENCH_CLAIMS) == [1.2, 0.8, 0.0]


class TestVerifyAxioms:
    def test_proportional_passes(self):
        assert verify_axioms(DistributionMechanism.proportional(), 1000, rng_seed=1).passed

    def test_contested_garment_passes(self):
        assert verify_axioms(DistributionMechanism.contested_garment(), 1000, rng_seed=2).passed

    def test_canonical_rank_one_passes(self):
        assert verify_axioms(DistributionMechanism.canonical(1), 1000, rng_seed=3).passed

    def test_descending_weighted_passes(self):
        mech = DistributionMechanism.weighted([(0.5, 1), (0.3, 2), (0.2, 3)])
        assert verify_axioms(mech, 1000, rng_seed=4).passed

    def test_unnormalized_mechanism_fails_volume_axiom(self):
        def broken(volume, claims):  # returns raw claims, ignores the volume
            return list(claims)

        report = verify_axioms(broken, 200, rng_seed=5)
        assert not report.passed
        assert any(f.axiom == 1 for f in report.failures)

    def test_higher_rank_canonical_violates_claim_monotonicity(self):
        # lowering the top claim below the runner-up drops the holder into
        # rank 2, where canonical(2) suddenly awards them everything; the
        # sampler must find such rank crossings
        report = verify_axioms(DistributionMechanism.canonical(2), 1000, rng_seed=6)
        assert not report.passed
        assert any(f.axiom == 2 for f in report.failures)
