import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contextprob as cp
from contextprob import interference as itf
from contextprob.cli import main
from contextprob.models import save_model
from contextprob.tolerances import OFFSET_TOL

from conftest import square_model_path


def brute_delta(space, pair, context, j):
    """Oracle: the perturbation from raw weight sums, no library calls."""
    w = space.weights
    ctx = set(context.indices())
    bx = set(pair.b_partition[j].indices())
    pc = sum(w[i] for i in ctx)
    direct = sum(w[i] for i in ctx & bx) / pc
    total = 0.0
    for ay in pair.a_partition:
        cell = set(ay.indices())
        p_ay = sum(w[i] for i in cell)
        p_ay_c = sum(w[i] for i in cell & ctx) / pc
        p_bx_ay = sum(w[i] for i in cell & bx) / p_ay
        total += p_bx_ay * p_ay_c
    return direct - total


def brute_lambda(space, pair, context, j):
    w = space.weights
    ctx = set(context.indices())
    bx = set(pair.b_partition[j].indices())
    pc = sum(w[i] for i in ctx)
    prod = 1.0
    for ay in pair.a_partition:
        cell = set(ay.indices())
        p_ay = sum(w[i] for i in cell)
        prod *= (sum(w[i] for i in cell & ctx) / pc) * (
            sum(w[i] for i in cell & bx) / p_ay
        )
    return brute_delta(space, pair, context, j) / (2.0 * math.sqrt(prod))


def delta_at(space, pair, context, x):
    """delta(x) as the coefficients carry it."""
    coeffs = cp.interference_coefficients(space, pair, context)
    return coeffs.deltas[pair.b_values.index(x)]


def lambda_at(space, pair, context, x):
    """lambda(x) as the coefficients carry it."""
    coeffs = cp.interference_coefficients(space, pair, context)
    return coeffs.lambdas[pair.b_values.index(x)]


class TestDelta:
    def test_full_space_has_no_perturbation(self, kq):
        for x in kq.pair.b_values:
            assert delta_at(
                kq.space, kq.pair, kq.space.full_event(), x
            ) == pytest.approx(0.0, abs=1e-15)

    def test_kq_c123_closed_form(self):
        for q in (0.05, 0.125, 0.25, 0.4):
            doc = cp.generate_kq(q)
            d = delta_at(doc.space, doc.pair, doc.context("C123"), 1.0)
            assert d == pytest.approx(
                2 * q * (2 * q - 1) / (2 * q + 1), abs=1e-14
            )

    def test_skewed_b1_value(self, skewed):
        space, pair = skewed
        d = delta_at(space, pair, pair.b_partition[0], 1.0)
        assert d == pytest.approx(brute_delta(space, pair, pair.b_partition[0], 0))
        assert d == pytest.approx(0.476190, abs=1e-6)

    def test_degenerate_context_rejected(self, kq):
        with pytest.raises(cp.DegenerateContext):
            delta_at(kq.space, kq.pair, kq.pair.a_partition[0], 1.0)


class TestLambda:
    def test_kq_c123_closed_form(self):
        for q in (0.05, 0.125, 0.25, 0.4):
            doc = cp.generate_kq(q)
            lam = lambda_at(doc.space, doc.pair, doc.context("C123"), 1.0)
            assert lam == pytest.approx(-math.sqrt(1 - 2 * q) / 2, abs=1e-14)

    def test_kq_b1_is_boundary(self, kq):
        lam = lambda_at(kq.space, kq.pair, kq.pair.b_partition[0], 1.0)
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_skewed_b1_values(self, skewed):
        space, pair = skewed
        b1 = pair.b_partition[0]
        lam1 = lambda_at(space, pair, b1, 1.0)
        lam2 = lambda_at(space, pair, b1, -1.0)
        assert lam1 == pytest.approx(brute_lambda(space, pair, b1, 0), abs=1e-12)
        assert lam2 == pytest.approx(brute_lambda(space, pair, b1, 1), abs=1e-12)
        assert lam1 == pytest.approx(1.36386, abs=1e-5)
        # the second outcome is also hyperbolic, but with its own magnitude:
        # the deltas mirror (they sum to zero) while the denominators differ
        assert lam2 == pytest.approx(-1.11359, abs=1e-5)


class TestClassification:
    def test_zero_lambda_is_trigonometric(self, kq):
        coeffs = cp.interference_coefficients(
            kq.space, kq.pair, kq.context("C24")
        )
        assert coeffs.context_class is cp.ContextClass.TRIGONOMETRIC

    def test_kq_c123_trigonometric(self, kq):
        coeffs = cp.interference_coefficients(
            kq.space, kq.pair, kq.context("C123")
        )
        assert coeffs.context_class is cp.ContextClass.TRIGONOMETRIC

    def test_skewed_b1_hyperbolic(self, skewed):
        space, pair = skewed
        coeffs = cp.interference_coefficients(space, pair, pair.b_partition[0])
        assert coeffs.context_class is cp.ContextClass.HYPERBOLIC

    def test_kq_b_cells_boundary(self, kq):
        for bx in kq.pair.b_partition:
            coeffs = cp.interference_coefficients(kq.space, kq.pair, bx)
            assert coeffs.context_class is cp.ContextClass.BOUNDARY

    def test_trichotomy_on_random_models(self):
        for seed in range(40):
            doc = cp.generate_random_model(seed=seed, n_points=5)
            space, pair = doc.space, doc.pair
            for c in doc.contexts.values():
                try:
                    coeffs = cp.interference_coefficients(space, pair, c)
                except cp.ContextualProbabilityError:
                    continue
                cls = coeffs.context_class
                assert cls in (
                    cp.ContextClass.TRIGONOMETRIC,
                    cp.ContextClass.HYPERBOLIC,
                    cp.ContextClass.BOUNDARY,
                    cp.ContextClass.MIXED,
                )


class TestPhases:
    def test_zero_lambda_gives_quarter_turns(self, kq):
        coeffs = cp.interference_coefficients(
            kq.space, kq.pair, kq.context("C24")
        )
        phases = cp.assign_phases(coeffs)
        assert phases.thetas == (math.pi / 2, 3 * math.pi / 2)
        conj = cp.assign_phases(coeffs, "conjugate")
        assert conj.thetas == (3 * math.pi / 2, math.pi / 2)

    def test_kq_c123_conjugate_branch(self, kq):
        q = 0.125
        coeffs = cp.interference_coefficients(
            kq.space, kq.pair, kq.context("C123")
        )
        phases = cp.assign_phases(coeffs, "conjugate")
        theta2 = math.acos(math.sqrt(1 - 2 * q) / 2)
        assert phases.thetas[1] == pytest.approx(theta2, abs=1e-12)
        # theta1 = theta2 - pi, represented mod 2 pi
        assert phases.thetas[0] == pytest.approx(theta2 + math.pi, abs=1e-12)

    def test_boundary_lambda_one_gives_zero_phase(self, kq):
        coeffs = cp.interference_coefficients(
            kq.space, kq.pair, kq.pair.b_partition[0]
        )
        phases = cp.assign_phases(coeffs)
        assert phases.thetas[0] == 0.0
        assert phases.thetas[1] == math.pi

    def test_cosine_matches_lambda(self, skewed):
        space, pair = skewed
        ctx = space.event(("w1", "w2", "w4"))
        coeffs = cp.interference_coefficients(space, pair, ctx)
        cls = coeffs.context_class
        phases = cp.assign_phases(coeffs)
        for j in range(2):
            if phases.kind == "trigonometric":
                assert math.cos(phases.thetas[j]) == pytest.approx(
                    coeffs.lambdas[j], abs=1e-10
                )
            else:
                assert math.cosh(phases.thetas[j]) == pytest.approx(
                    abs(coeffs.lambdas[j]), abs=1e-10
                )

    def test_hyperbolic_signs(self, skewed):
        space, pair = skewed
        coeffs = cp.interference_coefficients(space, pair, pair.b_partition[0])
        phases = cp.assign_phases(coeffs)
        assert phases.kind == "hyperbolic"
        assert phases.epsilons is not None
        assert sum(phases.epsilons) == 0
        for j in range(2):
            assert phases.epsilons[j] == (1 if coeffs.deltas[j] > 0 else -1)

    def test_mixed_context_rejected(self):
        # skewed cells make B_1 mixed: lambda(b1) ~ 0.24, lambda(b2) ~ -1.09
        space = cp.FiniteKolmogorovSpace(
            ("w1", "w2", "w3", "w4"), (0.45, 0.05, 0.15, 0.35)
        )
        a = cp.RandomVariable((1.0, 1.0, -1.0, -1.0))
        b = cp.RandomVariable((1.0, -1.0, -1.0, 1.0))
        pair = cp.ReferencePair.from_variables(space, a, b)
        coeffs = cp.interference_coefficients(space, pair, pair.b_partition[0])
        assert coeffs.context_class is cp.ContextClass.MIXED
        with pytest.raises(cp.MixedContext):
            cp.assign_phases(coeffs)


class TestReconstruction:
    def test_identity_on_kq_contexts(self, kq):
        space, pair = kq.space, kq.pair
        for name, ctx in kq.contexts.items():
            try:
                coeffs = cp.interference_coefficients(space, pair, ctx)
            except cp.ContextualProbabilityError:
                continue
            phases = cp.assign_phases(coeffs)
            rec = cp.reconstruct_probability(coeffs, phases)
            for j, x in enumerate(pair.b_values):
                assert rec[x] == pytest.approx(
                    space.conditional(pair.b_partition[j], ctx), abs=1e-10
                )

    def test_hyperbolic_branch(self, skewed):
        space, pair = skewed
        b1 = pair.b_partition[0]
        coeffs = cp.interference_coefficients(space, pair, b1)
        phases = cp.assign_phases(coeffs)
        rec = cp.reconstruct_probability(coeffs, phases)
        assert rec[1.0] == pytest.approx(1.0, abs=1e-10)
        assert rec[-1.0] == pytest.approx(0.0, abs=1e-10)

    def test_identity_on_random_models(self):
        for seed in range(60):
            doc = cp.generate_random_model(seed=seed, n_points=5)
            space, pair = doc.space, doc.pair
            for ctx in doc.contexts.values():
                try:
                    coeffs = cp.interference_coefficients(space, pair, ctx)
                except cp.ContextualProbabilityError:
                    continue
                if coeffs.context_class is cp.ContextClass.MIXED:
                    continue
                phases = cp.assign_phases(coeffs)
                rec = cp.reconstruct_probability(coeffs, phases)
                for j, x in enumerate(pair.b_values):
                    assert rec[x] == pytest.approx(
                        space.conditional(pair.b_partition[j], ctx), abs=1e-10
                    )


class TestSumRules:
    def test_delta_sum_zero_random(self):
        for seed in range(60):
            doc = cp.generate_random_model(seed=seed, n_points=6)
            space, pair = doc.space, doc.pair
            for ctx in doc.contexts.values():
                try:
                    coeffs = cp.interference_coefficients(space, pair, ctx)
                except cp.ContextualProbabilityError:
                    continue
                assert math.fsum(coeffs.deltas) == pytest.approx(0.0, abs=1e-10)

    def test_weighted_lambda_sum_zero_random(self):
        for seed in range(40):
            doc = cp.generate_random_model(seed=seed, n_points=5)
            space, pair = doc.space, doc.pair
            t = cp.transition_matrix(space, pair)
            for ctx in doc.contexts.values():
                try:
                    coeffs = cp.interference_coefficients(space, pair, ctx)
                except cp.ContextualProbabilityError:
                    continue
                pc = space.probability(ctx)
                pa = [
                    space.probability(ay & ctx) / pc
                    for ay in pair.a_partition
                ]
                total = math.fsum(
                    coeffs.lambdas[j]
                    * math.sqrt(
                        pa[0] * t.rows[0][j] * pa[1] * t.rows[1][j]
                    )
                    for j in range(2)
                )
                assert total == pytest.approx(0.0, abs=1e-10)

    def test_pi_shift_under_double_stochasticity(self):
        # cos theta(b2) = -cos theta(b1) for every trigonometric context
        for seed in range(30):
            doc = cp.generate_random_model(
                seed=seed, n_points=5, double_stochastic=True
            )
            space, pair = doc.space, doc.pair
            for ctx in doc.contexts.values():
                try:
                    coeffs = cp.interference_coefficients(space, pair, ctx)
                except cp.ContextualProbabilityError:
                    continue
                if coeffs.context_class not in (
                    cp.ContextClass.TRIGONOMETRIC,
                    cp.ContextClass.BOUNDARY,
                ):
                    continue
                assert coeffs.lambdas[1] == pytest.approx(
                    -coeffs.lambdas[0], abs=1e-10
                )


class TestKCoefficient:
    def test_kq_is_one(self, kq):
        t = cp.transition_matrix(kq.space, kq.pair)
        assert t.cosine_ratio == pytest.approx(1.0, abs=1e-14)

    def test_skewed_closed_form(self, skewed):
        space, pair = skewed
        t = cp.transition_matrix(space, pair)
        assert t.cosine_ratio == pytest.approx(
            math.sqrt(2.0 / 3.0), abs=1e-14
        )

    def test_symmetric_matrix_is_one(self):
        m = cp.TransitionMatrix(np.array([[0.3, 0.7], [0.7, 0.3]]))
        assert m.cosine_ratio == pytest.approx(1.0, abs=1e-14)

    def test_computed_once_per_analyze(self, tmp_path, monkeypatch, capsys):
        """``analyze`` of a model that is not double stochastic never computes
        the pair's cosine ratio, however many contexts take phases: no phase
        needs it."""
        doc = cp.generate_random_model(5, 12, double_stochastic=False, n_contexts=12)
        path = tmp_path / "model.json"
        save_model(doc, path)
        prop = cp.TransitionMatrix.__dict__["cosine_ratio"]
        original, calls = prop.func, []

        def counted(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(prop, "func", counted)
        assert main(["analyze", str(path)]) == 0
        classes = [
            c["class"] for c in json.loads(capsys.readouterr().out)["contexts"].values()
        ]
        assert len([c for c in classes if c not in ("mixed", "degenerate")]) >= 2
        assert len(calls) == 0

    @pytest.mark.parametrize(
        "entries, error",
        [([[1.0, 0.0], [0.5, 0.5]], cp.DegenerateCell), ([[0.5, 0.5, 0.0]] * 3, ValueError)],
    )
    def test_a_raise_is_not_kept(self, entries, error):
        m = cp.TransitionMatrix(np.array(entries))
        for _ in range(2):
            with pytest.raises(error):
                m.cosine_ratio

    def test_cosine_ratio_relation(self, skewed):
        # cos theta(b2) = -k cos theta(b1) across trigonometric contexts
        space, pair = skewed
        t = cp.transition_matrix(space, pair)
        k = t.cosine_ratio
        found = 0
        for mask in range(1, 16):
            ctx = cp.Event(mask, 4)
            try:
                coeffs = cp.interference_coefficients(space, pair, ctx)
            except cp.ContextualProbabilityError:
                continue
            if coeffs.context_class not in (
                cp.ContextClass.TRIGONOMETRIC,
                cp.ContextClass.BOUNDARY,
            ):
                continue
            found += 1
            assert coeffs.lambdas[1] == pytest.approx(
                -k * coeffs.lambdas[0], abs=1e-10
            )
        assert found > 0


class TestGlobalPhaseOffset:
    def test_double_stochastic_admits_pi(self, kq):
        names = ("C123", "C124", "C134", "C234", "C13", "C24", "Omega")
        contexts = {n: kq.context(n) for n in names}
        report = cp.verify_no_global_alpha(kq.space, kq.pair, contexts)
        assert report.found
        assert report.alpha == pytest.approx(math.pi, abs=1e-9)

    def test_single_context_trivially_found(self, skewed):
        space, pair = skewed
        ctx = space.event(("w1", "w2", "w4"))
        coeffs = cp.interference_coefficients(space, pair, ctx)
        assert coeffs.context_class is cp.ContextClass.TRIGONOMETRIC
        report = cp.verify_no_global_alpha(space, pair, {"C": ctx})
        assert report.found

    def test_non_double_stochastic_has_no_offset(self, skewed):
        space, pair = skewed
        # Omega has lambda = 0; any context with nonzero perturbation then
        # rules every candidate offset out
        trig = {"Omega": space.full_event()}
        for mask in range(1, 15):
            ctx = cp.Event(mask, 4)
            try:
                coeffs = cp.interference_coefficients(space, pair, ctx)
            except cp.ContextualProbabilityError:
                continue
            if (
                coeffs.context_class is cp.ContextClass.TRIGONOMETRIC
                and abs(coeffs.lambdas[0]) > 1e-3
            ):
                trig[f"m{mask}"] = ctx
        assert len(trig) >= 2
        report = cp.verify_no_global_alpha(space, pair, trig)
        assert report.has_distinct_lambda_pair
        assert not report.found


    @pytest.mark.parametrize("e", [1e-6, -1e-7])
    def test_offset_spread_is_the_first_order_spread(self, e, tmp_path):
        """On the square with weights (0.495, 0.005, (0.01+e)/2,
        (0.99-e)/2) the cosine ratio misses one by about e, and
        ``offset_spread`` is, to first order in k - 1, the spread of the
        offsets arccos m + arccos(-k m), m = |lambda(b_1)|, over the
        trigonometric contexts."""
        weights = (0.495, 0.005, 0.5 * (0.01 + e), 0.5 * (0.99 - e))
        doc = cp.load_model(square_model_path(tmp_path, weights))
        trig = [
            (name, coeffs)
            for name, _, coeffs in itf.read_contexts(
                doc.space, doc.pair, doc.contexts.items()
            )
            if getattr(coeffs, "context_class", None) is cp.ContextClass.TRIGONOMETRIC
        ]
        k = trig[0][1].transition.cosine_ratio
        offsets = [
            math.acos(m) + math.acos(-k * m)
            for m in (abs(coeffs.lambdas[0]) for _, coeffs in trig)
        ]
        report = itf.global_alpha_from_coefficients(trig)
        assert len(trig) >= 3
        assert report.offset_spread == pytest.approx(
            max(offsets) - min(offsets), rel=1e-3
        )
        assert report.offset_spread > 2 * OFFSET_TOL


def _profiles_match_conditionals(space, pair, ctx):
    try:
        coeffs = cp.interference_coefficients(space, pair, ctx)
    except cp.ContextualProbabilityError:
        return False
    for i, ay in enumerate(pair.a_partition):
        assert coeffs.a_profile[i] == space.conditional(ay, ctx)
    for j, bx in enumerate(pair.b_partition):
        assert coeffs.b_profile[j] == space.conditional(bx, ctx)
    return True


class TestCarriedProfiles:
    def test_kq_profiles_are_the_conditionals(self, kq):
        checked = sum(
            _profiles_match_conditionals(kq.space, kq.pair, ctx)
            for ctx in kq.contexts.values()
        )
        assert checked > 5

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_points=st.integers(4, 24),
        ds=st.sampled_from((None, True, False)),
        mask=st.integers(1, (1 << 24) - 1),
    )
    def test_random_model_profiles_are_the_conditionals(
        self, seed, n_points, ds, mask
    ):
        doc = cp.generate_random_model(
            seed=seed, n_points=n_points, double_stochastic=ds, n_contexts=0
        )
        space, pair = doc.space, doc.pair
        ctx = cp.Event(mask & ((1 << n_points) - 1) or 1, n_points)
        for c in (ctx, space.full_event(), *pair.b_partition):
            _profiles_match_conditionals(space, pair, c)

    def test_delta_and_lambda_read_the_coefficients(self, skewed):
        space, pair = skewed
        ctx = space.event(("w1", "w2", "w4"))
        coeffs = cp.interference_coefficients(space, pair, ctx)
        for j in range(2):
            assert coeffs.deltas[j] == pytest.approx(
                brute_delta(space, pair, ctx, j), abs=1e-12
            )
            assert coeffs.lambdas[j] == pytest.approx(
                brute_lambda(space, pair, ctx, j), abs=1e-12
            )

    def test_vanishing_root_raises_degenerate_cell(self):
        # every cell is populated, but the product under the normalising
        # root of b=+1 underflows: (1/2)(2e-200)(1/2)(2e-200) = 0 in floats
        space = cp.FiniteKolmogorovSpace(
            ("w1", "w2", "w3", "w4"), (1e-200, 0.5, 0.5, 1e-200)
        )
        a = cp.RandomVariable((1.0, 1.0, -1.0, -1.0))
        b = cp.RandomVariable((1.0, -1.0, -1.0, 1.0))
        pair = cp.ReferencePair.from_variables(space, a, b)
        assert cp.are_incompatible(space, pair)
        full = space.full_event()
        with pytest.raises(cp.DegenerateCell, match="normalising root"):
            cp.interference_coefficients(space, pair, full)


class TestDistinctLambdaPair:
    def test_equal_magnitudes_are_not_distinct(self, kq):
        # lambda(b1) is -sqrt(1-2q)/2 on C123 and +sqrt(1-2q)/2 on C134
        contexts = {n: kq.context(n) for n in ("C123", "C134")}
        report = cp.verify_no_global_alpha(kq.space, kq.pair, contexts)
        assert not report.has_distinct_lambda_pair

    def test_one_differing_context_is_distinct(self, kq):
        contexts = {n: kq.context(n) for n in ("C123", "C134", "C124")}
        report = cp.verify_no_global_alpha(kq.space, kq.pair, contexts)
        assert report.has_distinct_lambda_pair

    def test_single_context_is_not_distinct(self, kq):
        report = cp.verify_no_global_alpha(kq.space, kq.pair, [kq.context("C124")])
        assert not report.has_distinct_lambda_pair
