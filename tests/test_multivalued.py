import itertools
import math

import numpy as np
import pytest

import contextprob as cp
from conftest import union
from contextprob.multivalued import (
    build_amplitude_nvalued,
    contextual_total_probability_split,
    mu_coefficient,
)


def make_three_valued(seed, jitter=0.35):
    """Nine-point model with 3x3 crossing partitions and jittered near
    uniform cell masses (keeps the splitting coefficients inside [-1, 1])."""
    rng = np.random.default_rng(seed)
    w = 1.0 + rng.uniform(-jitter, jitter, size=9)
    w = w / w.sum()
    points = tuple(f"w{i}" for i in range(1, 10))
    space = cp.FiniteKolmogorovSpace(points, tuple(float(x) for x in w))
    a = cp.RandomVariable((1.0,) * 3 + (2.0,) * 3 + (3.0,) * 3)
    b = cp.RandomVariable((1.0, 2.0, 3.0) * 3)
    return space, cp.ReferencePair.from_variables(space, a, b)


class TestSplitDecomposition:
    def test_full_partition_reduces_to_dichotomous_coefficient(self, skewed):
        space, pair = skewed
        ctx = space.event(("w1", "w2", "w3"))
        b1 = pair.b_partition[0]
        split = contextual_total_probability_split(
            space, b1, pair.a_partition[0], pair.a_partition[1], ctx
        )
        lam = cp.interference_coefficients(space, pair, ctx).lambdas[0]
        assert split.lam == pytest.approx(lam, abs=1e-12)
        assert split.lhs == pytest.approx(split.rhs, abs=1e-12)

    def test_identities_on_random_nine_point_models(self):
        for seed in range(30):
            space, pair = make_three_valued(seed)
            rng = np.random.default_rng(seed + 1000)
            for _ in range(5):
                mask = int(rng.integers(1, 512))
                ctx = cp.Event(mask, 9)
                if space.probability(ctx) == 0.0:
                    continue
                b = pair.b_partition[int(rng.integers(3))]
                i1, i2 = rng.choice(3, size=2, replace=False)
                d1, d2 = pair.a_partition[int(i1)], pair.a_partition[int(i2)]
                try:
                    split = contextual_total_probability_split(
                        space, b, d1, d2, ctx
                    )
                except cp.ContextualProbabilityError:
                    continue
                assert split.lhs == pytest.approx(split.rhs, abs=1e-12)
                assert split.lhs == pytest.approx(
                    split.additivity_rhs, abs=1e-12
                )
                assert split.lhs == pytest.approx(
                    split.conditioned_rhs, abs=1e-12
                )

    def test_independence_gives_zero_coefficient(self):
        # uniform product model: conditioning on the context changes nothing
        space, pair = make_three_valued(seed=0, jitter=0.0)
        split = contextual_total_probability_split(
            space,
            pair.b_partition[0],
            pair.a_partition[0],
            pair.a_partition[1],
            space.full_event(),
        )
        assert split.lam == pytest.approx(0.0, abs=1e-12)

    def test_disjointness_required(self, skewed):
        space, pair = skewed
        with pytest.raises(ValueError):
            contextual_total_probability_split(
                space,
                pair.b_partition[0],
                pair.a_partition[0],
                pair.a_partition[0],
                space.full_event(),
            )


class TestMuCoefficient:
    def test_reconstruction_identity_random(self):
        for seed in range(30):
            space, pair = make_three_valued(seed)
            ctx = space.event([f"w{i}" for i in range(1, 9)])
            d2 = union(pair.a_partition[1], pair.a_partition[2])
            mu = mu_coefficient(
                space, pair.b_partition[0], pair.a_partition[0], d2, ctx
            )
            assert abs(mu) < 1.0

    def test_zero_at_full_context(self):
        # with the full space as context the half-eliminated form is exact
        space, pair = make_three_valued(seed=3)
        d2 = union(pair.a_partition[1], pair.a_partition[2])
        mu = mu_coefficient(
            space,
            pair.b_partition[0],
            pair.a_partition[0],
            d2,
            space.full_event(),
        )
        assert mu == pytest.approx(0.0, abs=1e-12)

    def test_magnitude_grows_as_tail_shrinks(self):
        # shrinking P(B D2 C) inflates the normalised residual
        mus = []
        for tail in (0.2, 0.02, 0.002):
            w3 = tail
            rest = (1.0 - w3) / 3.0
            space = cp.FiniteKolmogorovSpace(
                ("w1", "w2", "w3", "w4"), (rest, rest, w3, rest)
            )
            a = cp.RandomVariable((1.0, 1.0, -1.0, -1.0))
            b = cp.RandomVariable((1.0, -1.0, 1.0, -1.0))
            pair = cp.ReferencePair.from_variables(space, a, b)
            ctx = space.event(("w1", "w3", "w4"))
            mu = mu_coefficient(
                space,
                pair.b_partition[0],
                pair.a_partition[0],
                pair.a_partition[1],
                ctx,
            )
            mus.append(abs(mu))
        assert mus[0] < mus[1] < mus[2]


class TestRecursiveAmplitude:
    def test_two_valued_reduces_to_flat_construction(self, kq):
        for name in ("C123", "C134", "C24", "Omega"):
            ctx = kq.context(name)
            psi, chain = build_amplitude_nvalued(kq.space, kq.pair, ctx)
            flat = cp.build_amplitude(kq.space, kq.pair, ctx)
            for x in kq.pair.b_values:
                assert psi.born(x) == pytest.approx(flat.born(x), abs=1e-12)
            # a single split: the accumulated phase is the flat phase
            coeffs = cp.interference_coefficients(kq.space, kq.pair, ctx)
            assert chain.betas[1.0][1] == pytest.approx(
                math.acos(max(-1.0, min(1.0, coeffs.lambdas[0]))), abs=1e-10
            )

    def test_uniform_independent_three_valued(self):
        space, pair = make_three_valued(seed=0, jitter=0.0)
        psi, chain = build_amplitude_nvalued(space, pair, space.full_event())
        for x in pair.b_values:
            assert psi.born(x) == pytest.approx(1.0 / 3.0, abs=1e-12)
            for record in chain.levels[x]:
                assert record.coefficient == pytest.approx(0.0, abs=1e-12)
                assert record.phase == pytest.approx(math.pi / 2, abs=1e-12)

    def test_level_probabilities_tracked(self):
        space, pair = make_three_valued(seed=7)
        ctx = space.event([f"w{i}" for i in range(1, 9)])
        psi, chain = build_amplitude_nvalued(space, pair, ctx)
        for x in pair.b_values:
            for record in chain.levels[x]:
                assert abs(record.partial) ** 2 == pytest.approx(
                    record.tail_probability, abs=1e-9
                )

    def test_born_rule_all_orders(self):
        space, pair = make_three_valued(seed=12)
        ctx = space.event([f"w{i}" for i in range(2, 10)])
        direct = [
            space.conditional(bx, ctx) for bx in pair.b_partition
        ]
        for order in itertools.permutations(range(3)):
            psi, _ = build_amplitude_nvalued(space, pair, ctx, order=order)
            for j, x in enumerate(pair.b_values):
                assert psi.born(x) == pytest.approx(direct[j], abs=1e-9)

    def test_orders_change_phases_not_probabilities(self):
        space, pair = make_three_valued(seed=21)
        ctx = space.event([f"w{i}" for i in range(1, 9)])
        psi_a, chain_a = build_amplitude_nvalued(
            space, pair, ctx, order=(0, 1, 2)
        )
        psi_b, chain_b = build_amplitude_nvalued(
            space, pair, ctx, order=(2, 1, 0)
        )
        assert not np.allclose(chain_a.betas[1.0], chain_b.betas[1.0])
        for x in pair.b_values:
            assert psi_a.born(x) == pytest.approx(psi_b.born(x), abs=1e-9)

    def test_branch_signs_conjugate_amplitude(self):
        space, pair = make_three_valued(seed=4)
        ctx = space.event([f"w{i}" for i in range(1, 9)])
        psi_plus, _ = build_amplitude_nvalued(space, pair, ctx)
        psi_minus, _ = build_amplitude_nvalued(
            space, pair, ctx, branch_signs=(-1, -1)
        )
        np.testing.assert_allclose(
            psi_plus.components, np.conj(psi_minus.components), atol=1e-12
        )

    def test_out_of_range_context_rejected(self):
        # a heavily lopsided model pushes a splitting coefficient past one
        found = False
        for seed in range(200):
            rng = np.random.default_rng(seed)
            w = rng.dirichlet(np.ones(9) * 0.25)
            if float(np.min(w)) < 1e-6:
                continue
            space = cp.FiniteKolmogorovSpace(
                tuple(f"w{i}" for i in range(1, 10)),
                tuple(float(x) for x in w),
            )
            a = cp.RandomVariable((1.0,) * 3 + (2.0,) * 3 + (3.0,) * 3)
            b = cp.RandomVariable((1.0, 2.0, 3.0) * 3)
            pair = cp.ReferencePair.from_variables(space, a, b)
            for drop in range(9):
                ctx = cp.Event(((1 << 9) - 1) ^ (1 << drop), 9)
                try:
                    build_amplitude_nvalued(space, pair, ctx)
                except cp.SplitOutOfRange as exc:
                    assert abs(exc.value) > 1.0
                    found = True
                    break
                except cp.ContextualProbabilityError:
                    continue
            if found:
                break
        assert found, "expected some lopsided context to leave the range"


class TestSplitErrors:
    """The split functions keep their checks and messages."""

    @pytest.fixture
    def model(self):
        return make_three_valued(seed=4)

    @pytest.mark.parametrize(
        "fn", (contextual_total_probability_split, mu_coefficient)
    )
    def test_event_of_another_space(self, model, fn):
        space, pair = model
        b, d1, d2 = pair.b_partition[0], pair.a_partition[0], pair.a_partition[1]
        foreign = cp.Event(0b11, 2)
        for args in ((foreign, d1, d2, space.full_event()), (b, d1, d2, foreign)):
            with pytest.raises(ValueError, match="space"):
                fn(space, *args)

    @pytest.mark.parametrize(
        "fn", (contextual_total_probability_split, mu_coefficient)
    )
    def test_overlapping_conditioning_events(self, model, fn):
        space, pair = model
        d1 = pair.a_partition[0]
        d2 = union(pair.a_partition[0], pair.a_partition[1])
        with pytest.raises(ValueError, match="must be disjoint"):
            fn(space, pair.b_partition[0], d1, d2, space.full_event())

    @pytest.mark.parametrize(
        "fn", (contextual_total_probability_split, mu_coefficient)
    )
    def test_null_context(self, model, fn):
        space, pair = model
        with pytest.raises(cp.ZeroConditioningContext, match="probability zero"):
            fn(
                space, pair.b_partition[0], pair.a_partition[0],
                pair.a_partition[1], cp.Event(0, space.n),
            )

    def test_degenerate_cells(self, model):
        space, pair = model
        a1, a2, a3 = pair.a_partition
        b1 = pair.b_partition[0]
        full = space.full_event()
        split, mu = contextual_total_probability_split, mu_coefficient
        with pytest.raises(cp.DegenerateCell, match="^B meets D1 with"):
            split(space, a3, a1, a2, full)
        with pytest.raises(cp.DegenerateCell, match="^B meets D2 with"):
            split(space, union(a1, a3), a3, a2, full)
        with pytest.raises(cp.DegenerateCell, match="^D2 meets the context"):
            split(space, b1, a1, a2, a1)
        with pytest.raises(cp.DegenerateCell, match="^D1 meets the context"):
            split(space, b1, a1, a2, a2)
        with pytest.raises(cp.DegenerateCell, match="^B meets D1 with"):
            mu(space, a3, a1, a2, full)
        with pytest.raises(cp.DegenerateCell, match="^D1 meets the context"):
            mu(space, b1, a1, a2, a2)
        with pytest.raises(cp.DegenerateCell, match="^B, D2 and the context"):
            mu(space, b1, a1, a2, a1)

    def test_recursion_errors(self, model):
        space, pair = model
        with pytest.raises(ValueError, match="space"):
            build_amplitude_nvalued(space, pair, cp.Event(0b11, 2))
        with pytest.raises(cp.ZeroConditioningContext):
            build_amplitude_nvalued(space, pair, cp.Event(0, space.n))
        with pytest.raises(cp.DegenerateCell, match="context misses a conditioning"):
            build_amplitude_nvalued(space, pair, pair.a_partition[0])
