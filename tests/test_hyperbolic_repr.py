import math

import numpy as np
import pytest

import contextprob as cp
from contextprob.hyperbolic import HyperbolicNumber


class TestBuildHyperbolicAmplitude:
    def test_boundary_context_is_real(self, kq):
        # |lambda| = 1 exactly: zero rapidity, components reduce to signed
        # full squares and the amplitude is real
        psi = cp.build_hyperbolic_amplitude(
            kq.space, kq.pair, kq.pair.b_partition[0]
        )
        assert psi.thetas == (0.0, 0.0)
        for c in psi.components:
            assert c.y == 0.0
        assert psi.born(1.0) == pytest.approx(1.0, abs=1e-12)
        assert psi.born(-1.0) == pytest.approx(0.0, abs=1e-12)

    def test_skewed_b_cell_reproduces_probabilities(self, skewed):
        space, pair = skewed
        b1 = pair.b_partition[0]
        psi = cp.build_hyperbolic_amplitude(space, pair, b1)
        assert psi.born(1.0) == pytest.approx(1.0, abs=1e-10)
        assert psi.born(-1.0) == pytest.approx(0.0, abs=1e-10)
        # rapidities follow the coefficient magnitudes, which differ here
        coeffs = cp.interference_coefficients(space, pair, b1)
        for j in range(2):
            assert math.cosh(psi.thetas[j]) == pytest.approx(
                abs(coeffs.lambdas[j]), abs=1e-10
            )

    def test_epsilon_signs_follow_perturbations(self, skewed):
        space, pair = skewed
        psi = cp.build_hyperbolic_amplitude(space, pair, pair.b_partition[0])
        coeffs = cp.interference_coefficients(space, pair, pair.b_partition[0])
        assert psi.epsilons == tuple(
            1 if d > 0 else -1 for d in coeffs.deltas
        )
        assert sum(psi.epsilons) == 0

    def test_common_rapidity_under_double_stochasticity(self, ds_skewed):
        space, pair = ds_skewed
        for bx in pair.b_partition:
            psi = cp.build_hyperbolic_amplitude(space, pair, bx)
            assert psi.thetas[0] == psi.thetas[1]
            assert psi.thetas[0] > 0.0
            for j, x in enumerate(pair.b_values):
                assert psi.born(x) == pytest.approx(
                    space.conditional(pair.b_partition[j], bx), abs=1e-10
                )

    def test_trigonometric_context_rejected(self, kq):
        with pytest.raises(cp.TrigonometricContext):
            cp.build_hyperbolic_amplitude(kq.space, kq.pair, kq.context("C123"))

    def test_mixed_context_rejected(self):
        space = cp.FiniteKolmogorovSpace(
            ("w1", "w2", "w3", "w4"), (0.45, 0.05, 0.15, 0.35)
        )
        a = cp.RandomVariable((1.0, 1.0, -1.0, -1.0))
        b = cp.RandomVariable((1.0, -1.0, -1.0, 1.0))
        pair = cp.ReferencePair.from_variables(space, a, b)
        with pytest.raises(cp.MixedContext):
            cp.build_hyperbolic_amplitude(space, pair, pair.b_partition[0])

    def test_rapidity_equality_on_random_ds_models(self):
        checked = 0
        for seed in range(60):
            doc = cp.generate_random_model(
                seed=seed, n_points=5, double_stochastic=True
            )
            space, pair = doc.space, doc.pair
            for ctx in doc.contexts.values():
                try:
                    coeffs = cp.interference_coefficients(space, pair, ctx)
                except cp.ContextualProbabilityError:
                    continue
                if coeffs.context_class is not cp.ContextClass.HYPERBOLIC:
                    continue
                assert abs(coeffs.lambdas[0]) == pytest.approx(
                    abs(coeffs.lambdas[1]), abs=1e-10
                )
                psi = cp.build_hyperbolic_amplitude(space, pair, ctx)
                for j, x in enumerate(pair.b_values):
                    assert psi.born(x) == pytest.approx(
                        space.conditional(pair.b_partition[j], ctx), abs=1e-10
                    )
                checked += 1
        assert checked > 10


class TestInnerProduct:
    def test_built_amplitude_is_normalised(self, ds_skewed):
        space, pair = ds_skewed
        psi = cp.build_hyperbolic_amplitude(space, pair, pair.b_partition[0])
        ip = cp.hyperbolic_inner_product(psi.components, psi.components)
        assert ip.x == pytest.approx(1.0, abs=1e-10)
        assert ip.y == pytest.approx(0.0, abs=1e-10)

    def test_canonical_basis_orthonormal(self):
        e1 = (HyperbolicNumber(1.0, 0.0), HyperbolicNumber(0.0, 0.0))
        e2 = (HyperbolicNumber(0.0, 0.0), HyperbolicNumber(1.0, 0.0))
        assert cp.hyperbolic_inner_product(e1, e1) == HyperbolicNumber(1.0, 0.0)
        assert cp.hyperbolic_inner_product(e1, e2) == HyperbolicNumber(0.0, 0.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u = tuple(
                HyperbolicNumber(*rng.uniform(-3, 3, size=2)) for _ in range(2)
            )
            v = tuple(
                HyperbolicNumber(*rng.uniform(-3, 3, size=2)) for _ in range(2)
            )
            lhs = cp.hyperbolic_inner_product(u, v)
            rhs = cp.hyperbolic_inner_product(v, u).conj()
            assert lhs.isclose(rhs, tol=1e-12)

    def test_linearity_in_first_argument(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            u = tuple(
                HyperbolicNumber(*rng.uniform(-3, 3, size=2)) for _ in range(2)
            )
            w = tuple(
                HyperbolicNumber(*rng.uniform(-3, 3, size=2)) for _ in range(2)
            )
            v = tuple(
                HyperbolicNumber(*rng.uniform(-3, 3, size=2)) for _ in range(2)
            )
            scale = HyperbolicNumber(*rng.uniform(-2, 2, size=2))
            combo = tuple(scale * ui + wi for ui, wi in zip(u, w))
            lhs = cp.hyperbolic_inner_product(combo, v)
            rhs = scale * cp.hyperbolic_inner_product(
                u, v
            ) + cp.hyperbolic_inner_product(w, v)
            assert lhs.isclose(rhs, tol=1e-10)


class TestABasis:
    def test_gram_identity_for_ds_model(self, ds_skewed):
        space, pair = ds_skewed
        basis = cp.hyperbolic_a_basis(
            cp.interference_coefficients(space, pair, pair.b_partition[0])
        )
        for i in range(2):
            for k in range(2):
                g = cp.hyperbolic_inner_product(
                    basis.vectors[i], basis.vectors[k]
                )
                assert g.x == pytest.approx(1.0 if i == k else 0.0, abs=1e-10)
                assert g.y == pytest.approx(0.0, abs=1e-10)

    def test_two_sided_probability_rule(self, ds_skewed):
        space, pair = ds_skewed
        basis = cp.hyperbolic_a_basis(
            cp.interference_coefficients(space, pair, pair.b_partition[0])
        )
        for ctx in pair.b_partition:
            psi = cp.build_hyperbolic_amplitude(space, pair, ctx)
            for i, ay in enumerate(pair.a_partition):
                assert cp.hyperbolic_born(
                    psi.components, basis.vectors[i]
                ) == pytest.approx(space.conditional(ay, ctx), abs=1e-10)

    def test_non_double_stochastic_rejected(self, skewed):
        space, pair = skewed
        coeffs = cp.interference_coefficients(space, pair, pair.b_partition[0])
        with pytest.raises(cp.NonUnitaryBasis):
            cp.hyperbolic_a_basis(coeffs)


class TestDecomposability:
    def test_built_amplitudes_decomposable(self, ds_skewed):
        space, pair = ds_skewed
        psi = cp.build_hyperbolic_amplitude(space, pair, pair.b_partition[0])
        assert cp.check_decomposability(psi.components)

    def test_pure_generator_coordinate_fails(self):
        coords = (HyperbolicNumber(0.0, 1.0), HyperbolicNumber(1.0, 0.0))
        assert not cp.check_decomposability(coords)

    def test_unitary_change_of_basis_can_break_positivity(self):
        # a hyperbolic rotation is orthonormal yet moves a decomposable
        # vector out of the cone: decomposability is not transitive
        t = 2.0
        v1 = (HyperbolicNumber(math.cosh(t), 0.0), HyperbolicNumber(0.0, math.sinh(t)))
        v2 = (HyperbolicNumber(0.0, math.sinh(t)), HyperbolicNumber(math.cosh(t), 0.0))
        g11 = cp.hyperbolic_inner_product(v1, v1)
        g12 = cp.hyperbolic_inner_product(v1, v2)
        assert g11.isclose(HyperbolicNumber(1.0, 0.0), tol=1e-12)
        assert g12.isclose(HyperbolicNumber(0.0, 0.0), tol=1e-12)
        psi = (HyperbolicNumber(math.sqrt(0.2), 0.0),
               HyperbolicNumber(-math.sqrt(0.8), 0.0))
        assert cp.check_decomposability(psi)
        coords = (
            cp.hyperbolic_inner_product(psi, v1),
            cp.hyperbolic_inner_product(psi, v2),
        )
        # normalisation survives the basis change, positivity does not
        total = coords[0].norm_sq() + coords[1].norm_sq()
        assert total == pytest.approx(1.0, abs=1e-10)
        assert not cp.check_decomposability(coords)


class TestInterferenceTransform:
    def test_zero_rapidity_uniform_collapses(self):
        t = cp.TransitionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert cp.hyperbolic_interference_transform(
            (0.5, 0.5), t, 0.0, 1
        ) == pytest.approx((1.0, 0.0))
        assert cp.hyperbolic_interference_transform(
            (0.5, 0.5), t, 0.0, -1
        ) == pytest.approx((0.0, 1.0))

    def test_roundtrip_reproduces_context_probabilities(self, ds_skewed):
        space, pair = ds_skewed
        t = cp.transition_matrix(space, pair)
        for ctx in pair.b_partition:
            psi = cp.build_hyperbolic_amplitude(space, pair, ctx)
            pc = space.probability(ctx)
            p_a = [space.probability(ay & ctx) / pc for ay in pair.a_partition]
            out = cp.hyperbolic_interference_transform(
                p_a, t, psi.thetas[0], psi.epsilons[0]
            )
            for j, x in enumerate(pair.b_values):
                assert out[j] == pytest.approx(
                    space.conditional(pair.b_partition[j], ctx), abs=1e-10
                )

    def test_pair_sums_to_one(self, ds_skewed):
        space, pair = ds_skewed
        t = cp.transition_matrix(space, pair)
        out = cp.hyperbolic_interference_transform((0.4, 0.6), t, 0.15, 1)
        assert out[0] + out[1] == pytest.approx(1.0, abs=1e-12)

    def test_large_rapidity_leaves_unit_interval(self, ds_skewed):
        space, pair = ds_skewed
        t = cp.transition_matrix(space, pair)
        with pytest.raises(cp.OutOfRangeProbability):
            cp.hyperbolic_interference_transform((0.4, 0.6), t, 5.0, 1)

    def test_non_double_stochastic_rejected(self, skewed):
        space, pair = skewed
        t = cp.transition_matrix(space, pair)
        with pytest.raises(cp.NonUnitaryBasis):
            cp.hyperbolic_interference_transform((0.5, 0.5), t, 0.1, 1)


class TestBasicContexts:
    def test_b_cells_hyperbolic_under_forward_ds(self):
        # with a double stochastic forward matrix the b-cells always carry
        # large coefficients; they reach the boundary exactly when the
        # reverse matrix is double stochastic too
        for seed in range(30):
            doc = cp.generate_random_model(
                seed=seed, n_points=5, double_stochastic=True
            )
            space, pair = doc.space, doc.pair
            both = cp.transition_matrix(space, pair, "a/b").double_stochastic
            for bx in pair.b_partition:
                coeffs = cp.interference_coefficients(space, pair, bx)
                cls = coeffs.context_class
                assert cls in (
                    cp.ContextClass.HYPERBOLIC,
                    cp.ContextClass.BOUNDARY,
                )
                if both:
                    assert cls is cp.ContextClass.BOUNDARY


class TestHyperbolicAmplitudeFromCoefficients:
    def test_carried_coefficients_give_the_same_state(self, kq, skewed, ds_skewed):
        models = [(kq.space, kq.pair, list(kq.contexts.values()))]
        for space, pair in (skewed, ds_skewed):
            models.append(
                (space, pair, [*pair.b_partition, space.event(("w1", "w2", "w4"))])
            )
        for seed in range(20):
            doc = cp.generate_random_model(seed=seed, n_points=8)
            models.append((doc.space, doc.pair, list(doc.contexts.values())))
        built = 0
        for space, pair, contexts in models:
            for ctx in contexts:
                try:
                    coeffs = cp.interference_coefficients(space, pair, ctx)
                except cp.ContextualProbabilityError:
                    continue
                try:
                    psi = cp.build_hyperbolic_amplitude(space, pair, ctx)
                except (cp.MixedContext, cp.TrigonometricContext) as exc:
                    with pytest.raises(type(exc)):
                        cp.hyperbolic_amplitude_from_coefficients(coeffs)
                    continue
                carried = cp.hyperbolic_amplitude_from_coefficients(coeffs)
                assert carried == psi
                built += 1
        assert built > 10
