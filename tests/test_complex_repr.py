import math

import numpy as np
import pytest
from conftest import total_variation

import contextprob as cp
from contextprob.complex_repr import state_for_context
from contextprob.tolerances import AVERAGE_TOL, HERMITIAN_TOL

Q_GRID = (0.05, 0.125, 0.25, 0.4)


def direct_b_probs(doc, name):
    space, pair = doc.space, doc.pair
    ctx = doc.context(name)
    return [space.conditional(bx, ctx) for bx in pair.b_partition]


class TestBuildAmplitude:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_uniform_two_point_context_golden(self, q):
        # psi(b1) = sqrt(q) + i sqrt((1-2q)/2), psi(b2) = sqrt((1-2q)/2) - i sqrt(q)
        doc = cp.generate_kq(q)
        psi = cp.build_amplitude(doc.space, doc.pair, doc.context("C24"))
        h = math.sqrt((1 - 2 * q) / 2)
        assert psi.component(1.0) == pytest.approx(
            complex(math.sqrt(q), h), abs=1e-15
        )
        assert psi.component(-1.0) == pytest.approx(
            complex(h, -math.sqrt(q)), abs=1e-15
        )

    @pytest.mark.parametrize("q", Q_GRID)
    def test_conjugate_partner_context_golden(self, q):
        doc = cp.generate_kq(q)
        psi = cp.build_amplitude(
            doc.space, doc.pair, doc.context("C13"), "conjugate"
        )
        h = math.sqrt((1 - 2 * q) / 2)
        assert psi.component(1.0) == pytest.approx(
            complex(math.sqrt(q), -h), abs=1e-15
        )
        assert psi.component(-1.0) == pytest.approx(
            complex(h, math.sqrt(q)), abs=1e-15
        )

    def test_conjugate_pair_is_orthogonal(self, kq):
        psi24 = cp.build_amplitude(kq.space, kq.pair, kq.context("C24"))
        psi13 = cp.build_amplitude(
            kq.space, kq.pair, kq.context("C13"), "conjugate"
        )
        assert abs(cp.inner_product(psi24.components, psi13.components)) == (
            pytest.approx(0.0, abs=1e-15)
        )

    @pytest.mark.parametrize("q", Q_GRID)
    def test_b_cells_map_to_canonical_basis(self, q):
        doc = cp.generate_kq(q)
        for j, name in enumerate(("C14", "C23")):
            psi = cp.build_amplitude(doc.space, doc.pair, doc.context(name))
            other = 1 - j
            # the off component cancels exactly: same two square roots
            assert psi.components[other] == 0.0
            assert abs(psi.components[j] - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "name,branch",
        [("C123", "conjugate"), ("C124", "principal"),
         ("C134", "principal"), ("C234", "conjugate")],
    )
    def test_three_point_contexts_match_displays(self, name, branch):
        # closed-form components of the four three-point contexts at q=1/8
        q = 0.125
        doc = cp.generate_kq(q)
        psi = cp.build_amplitude(doc.space, doc.pair, doc.context(name), branch)
        t1 = math.acos(math.sqrt(1 - 2 * q) / 2)
        t2 = math.acos(math.sqrt(q / 2))
        e1, e2 = complex(math.cos(t1), math.sin(t1)), complex(
            math.cos(t2), math.sin(t2)
        )
        displays = {
            "C123": (
                math.sqrt(2 * q / (2 * q + 1))
                - e1 * math.sqrt(2 * q * (1 - 2 * q) / (2 * q + 1)),
                math.sqrt((1 - 2 * q) / (2 * q + 1))
                + e1 * 2 * q / math.sqrt(2 * q + 1),
            ),
            "C124": (
                math.sqrt(q / (1 - q))
                + e2 * (1 - 2 * q) / math.sqrt(2 * (1 - q)),
                math.sqrt((1 - 2 * q) / (2 * (1 - q)))
                - e2 * math.sqrt(q * (1 - 2 * q) / (1 - q)),
            ),
            "C134": (
                2 * q / math.sqrt(2 * q + 1)
                + e1 * math.sqrt((1 - 2 * q) / (2 * q + 1)),
                math.sqrt(2 * q * (1 - 2 * q) / (2 * q + 1))
                - e1 * math.sqrt(2 * q / (2 * q + 1)),
            ),
            "C234": (
                math.sqrt(q * (1 - 2 * q) / (1 - q))
                - e2 * math.sqrt((1 - 2 * q) / (2 * (1 - q))),
                (1 - 2 * q) / math.sqrt(2 * (1 - q))
                + e2 * math.sqrt(q / (1 - q)),
            ),
        }
        want = displays[name]
        assert psi.component(1.0) == pytest.approx(want[0], abs=1e-14)
        assert psi.component(-1.0) == pytest.approx(want[1], abs=1e-14)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_born_rule_for_b(self, q):
        doc = cp.generate_kq(q)
        for name in doc.contexts:
            try:
                psi = cp.build_amplitude(doc.space, doc.pair, doc.context(name))
            except cp.ContextualProbabilityError:
                continue
            for born, direct in zip(
                [psi.born(x) for x in doc.pair.b_values],
                direct_b_probs(doc, name),
            ):
                assert born == pytest.approx(direct, abs=1e-10)

    def test_kq_c123_squared_moduli(self, kq):
        psi = cp.build_amplitude(kq.space, kq.pair, kq.context("C123"))
        assert psi.born(1.0) == pytest.approx(0.2, abs=1e-10)
        assert psi.born(-1.0) == pytest.approx(0.8, abs=1e-10)

    def test_normalization(self, kq):
        for name in ("C123", "C24", "C14", "Omega"):
            psi = cp.build_amplitude(kq.space, kq.pair, kq.context(name))
            assert psi.norm_sq() == pytest.approx(1.0, abs=1e-10)

    def test_hyperbolic_context_rejected(self, skewed):
        space, pair = skewed
        with pytest.raises(cp.HyperbolicContext):
            cp.build_amplitude(space, pair, pair.b_partition[0])

    def test_degenerate_context_rejected(self, kq):
        with pytest.raises(cp.DegenerateContext):
            cp.build_amplitude(kq.space, kq.pair, kq.space.event(("w1",)))

    def test_branches_are_conjugates_with_equal_born(self, kq):
        for name in ("C123", "C234", "C24"):
            ctx = kq.context(name)
            p = cp.build_amplitude(kq.space, kq.pair, ctx, "principal")
            c = cp.build_amplitude(kq.space, kq.pair, ctx, "conjugate")
            np.testing.assert_allclose(
                p.components, np.conj(c.components), atol=1e-14
            )
            for x in kq.pair.b_values:
                assert p.born(x) == pytest.approx(c.born(x), abs=1e-12)


class TestABasis:
    def test_kq_anchor_c13_matches_display(self, kq):
        # e1 = (sqrt(2q), sqrt(1-2q)), e2 = i(-sqrt(1-2q), sqrt(2q))
        q = 0.125
        basis = cp.a_basis_for_context(
            kq.space, kq.pair, kq.context("C13"), "conjugate"
        )
        np.testing.assert_allclose(
            basis.vectors[0],
            [math.sqrt(2 * q), math.sqrt(1 - 2 * q)],
            atol=1e-15,
        )
        np.testing.assert_allclose(
            basis.vectors[1],
            [-1j * math.sqrt(1 - 2 * q), 1j * math.sqrt(2 * q)],
            atol=1e-15,
        )
        assert basis.unitary

    def test_unitary_iff_double_stochastic(self, kq, skewed):
        basis = cp.a_basis_for_context(kq.space, kq.pair, kq.space.full_event())
        assert basis.unitary
        space, pair = skewed
        basis2 = cp.a_basis_for_context(space, pair, space.full_event())
        assert not basis2.unitary
        assert "column_sum_0" in basis2.witness

    def test_unitarity_on_random_double_stochastic_models(self):
        for seed in range(30):
            doc = cp.generate_random_model(
                seed=seed, n_points=5, double_stochastic=True
            )
            basis = cp.a_basis_for_context(
                doc.space, doc.pair, doc.space.full_event()
            )
            v = np.asarray(basis.vectors)
            np.testing.assert_allclose(
                v @ v.conj().T, np.eye(2), atol=1e-10
            )

    def test_extension_maps_a_cells_to_basis_vectors(self, kq):
        q = 0.125
        basis = cp.a_basis_for_context(kq.space, kq.pair, kq.space.full_event())
        ext = {
            y: state_for_context(kq.space, kq.pair, ay, basis)[0]
            for y, ay in zip(kq.pair.a_values, kq.pair.a_partition)
        }
        np.testing.assert_allclose(
            ext[1.0].components,
            [math.sqrt(2 * q), math.sqrt(1 - 2 * q)],
            atol=1e-15,
        )
        assert cp.born_probability(ext[1.0], ext[1.0]) == pytest.approx(
            1.0, abs=1e-12
        )
        assert cp.born_probability(ext[1.0], ext[-1.0]) == pytest.approx(
            0.0, abs=1e-12
        )


class TestBornProbability:
    def test_self_overlap_is_one(self, kq):
        psi = cp.build_amplitude(kq.space, kq.pair, kq.context("C123"))
        assert cp.born_probability(psi, psi) == pytest.approx(1.0, abs=1e-10)

    def test_a_outcome_probability(self, kq):
        basis = cp.a_basis_for_context(kq.space, kq.pair, kq.space.full_event())
        psi = cp.build_amplitude(kq.space, kq.pair, kq.context("C123"))
        assert cp.born_probability(psi, basis.vectors[0]) == pytest.approx(
            0.8, abs=1e-10
        )

    def test_orthogonal_basis_vectors(self, kq):
        psi_b1 = cp.build_amplitude(kq.space, kq.pair, kq.context("C14"))
        e2 = np.array([0.0, 1.0], dtype=complex)
        assert cp.born_probability(psi_b1, e2) == pytest.approx(0.0, abs=1e-15)

    def test_two_sided_rule_on_random_ds_models(self):
        for seed in range(40):
            doc = cp.generate_random_model(
                seed=seed, n_points=6, double_stochastic=True
            )
            space, pair = doc.space, doc.pair
            basis = cp.a_basis_for_context(space, pair, space.full_event())
            for ctx in doc.contexts.values():
                try:
                    psi = cp.build_amplitude(space, pair, ctx)
                except cp.ContextualProbabilityError:
                    continue
                for i, ay in enumerate(pair.a_partition):
                    assert cp.born_probability(
                        psi, basis.vectors[i]
                    ) == pytest.approx(space.conditional(ay, ctx), abs=1e-10)


class TestOperators:
    def test_b_operator_is_diagonal(self, kq):
        op = cp.operator_for_b(kq.pair)
        np.testing.assert_allclose(op.matrix, np.diag([1.0, -1.0]), atol=0)

    @pytest.mark.parametrize("gamma", (1.0, 2.5))
    def test_a_operator_closed_form(self, gamma):
        # a11 = gamma (4q - 1), a12 = 2 gamma sqrt(2q(1-2q)) for a = +-gamma
        q = 0.125
        doc = cp.generate_kq(q)
        basis = cp.a_basis_for_context(
            doc.space, doc.pair, doc.space.full_event()
        )
        op = cp.operator_for_variable((gamma, -gamma), basis)
        assert op.matrix[0][0] == pytest.approx(gamma * (4 * q - 1), abs=1e-14)
        assert op.matrix[1][1] == pytest.approx(-gamma * (4 * q - 1), abs=1e-14)
        assert op.matrix[0][1] == pytest.approx(
            2 * gamma * math.sqrt(2 * q * (1 - 2 * q)), abs=1e-14
        )
        assert op.matrix[0][1].imag == pytest.approx(0.0, abs=1e-15)

    def test_eigenvalues_recover_value_set(self, kq):
        basis = cp.a_basis_for_context(kq.space, kq.pair, kq.space.full_event())
        op = cp.operator_for_variable(kq.pair.a_values, basis)
        np.testing.assert_allclose(
            sorted(op.eigenvalues()), [-1.0, 1.0], atol=1e-10
        )

    def test_not_self_adjoint_reports_the_deviation(self):
        with pytest.raises(cp.InvariantViolation) as info:
            cp.HermitianOperator([[1.0, 2.0], [3.0, -1.0]])
        assert str(info.value) == (
            "operator is not self-adjoint (worst deviation 1.0, tolerance "
            f"{HERMITIAN_TOL!r})"
        )

    def test_non_unitary_basis_rejected(self, skewed):
        space, pair = skewed
        basis = cp.a_basis_for_context(space, pair, space.full_event())
        with pytest.raises(cp.NonUnitaryBasis):
            cp.operator_for_variable(pair.a_values, basis)


class TestCommutator:
    def test_self_commutator_vanishes(self, kq):
        op = cp.operator_for_b(kq.pair)
        np.testing.assert_allclose(cp.commutator(op, op), 0.0, atol=0)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_kq_closed_form_magnitude(self, q):
        doc = cp.generate_kq(q)
        basis = cp.a_basis_for_context(
            doc.space, doc.pair, doc.space.full_event()
        )
        a_op = cp.operator_for_variable(doc.pair.a_values, basis)
        b_op = cp.operator_for_b(doc.pair)
        comm = np.asarray(cp.commutator(b_op, a_op))
        q1q2 = math.sqrt(2 * q * (1 - 2 * q))
        # the off-diagonal magnitude is |a1-a2| |b1-b2| q1 q2 and never zero
        assert comm[0, 1] == pytest.approx(4 * q1q2, abs=1e-12)
        assert comm[1, 0] == pytest.approx(-4 * q1q2, abs=1e-12)
        assert comm[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert abs(comm[0, 1]) > 0.1


class TestQuantumAverage:
    def test_identity_operator(self, kq):
        psi = cp.build_amplitude(kq.space, kq.pair, kq.context("C123"))
        op = cp.HermitianOperator(np.eye(2, dtype=complex))
        assert cp.quantum_average(op, psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_reference_averages_match_closed_form(self, q):
        doc = cp.generate_kq(q)
        space, pair = doc.space, doc.pair
        psi = cp.build_amplitude(space, pair, doc.context("C234"))
        basis = cp.a_basis_for_context(space, pair, space.full_event())
        b_op = cp.operator_for_b(pair)
        a_op = cp.operator_for_variable(pair.a_values, basis)
        closed = q / (q - 1)
        assert cp.quantum_average(b_op, psi) == pytest.approx(closed, abs=1e-10)
        assert cp.quantum_average(a_op, psi) == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("k_op, k_psi", [(2, 3), (3, 2), (2, 1)])
    def test_dimension_mismatch_raises(self, k_op, k_psi):
        op = cp.HermitianOperator(np.eye(k_op, dtype=complex))
        psi = _state([1.0] * k_psi)
        with pytest.raises(ValueError, match="cannot act on a state"):
            cp.quantum_average(op, psi)


EPS = np.finfo(float).eps
ULPS = 8  # a few roundings of the operands' magnitude


def _state(components) -> cp.ComplexAmplitude:
    components = tuple(map(complex, components))
    b_values = tuple(float(j) for j in range(len(components)))
    return cp.ComplexAmplitude(components, b_values)


def _hermitian(a: float, d: float, c: complex) -> list[list[complex]]:
    """[[a, conj(c)], [c, d]]: real diagonal, lower off-diagonal c."""
    return [[complex(a), complex(c).conjugate()], [complex(c), complex(d)]]


def _random_hermitians(seed: int, count: int = 200):
    rng = np.random.default_rng(seed)
    for scale in (1e-3, 1.0, 1e3):
        for _ in range(count):
            a, d, x, y = scale * rng.uniform(-1, 1, size=4)
            yield _hermitian(a, d, complex(x, y))
            yield _hermitian(a, d, x)  # purely real
            yield _hermitian(a, d, 0.0)  # diagonal
            yield _hermitian(a, a, 0.0)  # degenerate


def _random_states(seed: int, k: int, count: int = 300, scales=(1e-3, 1.0, 1e3)):
    rng = np.random.default_rng(seed)
    for scale in scales:
        for _ in range(count):
            re, im = scale * rng.uniform(-1, 1, size=(2, k))
            yield _state(re + 1j * im)
            yield _state(re)  # purely real


class TestClosedFormKernelsAgainstNumpy:
    """The plain-Python kernels agree with numpy to a few ulps of the
    operands' magnitude."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_two_by_two_eigenvalues_match_eigvalsh(self, seed):
        for matrix in _random_hermitians(seed):
            got = cp.HermitianOperator(matrix).eigenvalues()
            want = np.linalg.eigvalsh(np.array(matrix))
            magnitude = max(abs(v) for row in matrix for v in row)
            assert got[0] <= got[1]
            np.testing.assert_allclose(got, want, rtol=0, atol=ULPS * EPS * magnitude)

    def test_degenerate_and_diagonal_eigenvalues_are_exact(self):
        op = cp.HermitianOperator(_hermitian(0.3, 0.3, 0.0))
        assert op.eigenvalues() == (0.3, 0.3)
        op = cp.HermitianOperator(_hermitian(2.0, -1.0, 0.0))
        assert op.eigenvalues() == (-1.0, 2.0)

    def test_other_sizes_are_refused(self):
        matrix = np.diag([3.0, -2.0, 0.5]).astype(complex)
        matrix[0, 2], matrix[2, 0] = 1j, -1j
        op = cp.HermitianOperator(matrix)
        with pytest.raises(ValueError, match="not size 3"):
            op.eigenvalues()

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_norm_sq_matches_numpy(self, k):
        for psi in _random_states(10 + k, k):
            want = float(np.sum(np.abs(np.array(psi.components)) ** 2))
            assert psi.norm_sq() == pytest.approx(want, rel=ULPS * EPS, abs=0)
            assert psi.norm_sq() == sum(psi.born(x) for x in psi.b_values)

    @pytest.mark.parametrize("seed", [20, 21])
    def test_quantum_average_matches_vdot(self, seed):
        # states of order 1, as the imaginary-residue guard is absolute
        states = _random_states(seed, 2, count=240, scales=(1.0,))
        for psi, matrix in zip(states, _random_hermitians(seed, count=40)):
            c, m = np.array(psi.components), np.array(matrix)
            want = np.vdot(c, m @ c).real
            magnitude = np.abs(m).max() * np.sum(np.abs(c)) ** 2
            got = cp.quantum_average(cp.HermitianOperator(matrix), psi)
            assert got == pytest.approx(want, rel=0, abs=ULPS * EPS * magnitude)


class TestAveragePreservation:
    def test_identity_functions(self, kq):
        q = 0.125
        report = cp.verify_average_preservation(
            kq.space, kq.pair, kq.context("C234"), lambda y: y, lambda x: x
        )
        assert abs(report.classical - report.quantum) <= AVERAGE_TOL
        assert report.classical == pytest.approx(2 * q / (q - 1), abs=1e-12)

    def test_energy_style_observable(self, kq):
        mass = 2.0
        v_table = {1.0: 0.7, -1.0: -1.9}
        report = cp.verify_average_preservation(
            kq.space,
            kq.pair,
            kq.context("C124"),
            lambda y: y * y / (2 * mass),
            v_table,
        )
        assert abs(report.classical - report.quantum) <= AVERAGE_TOL

    def test_zero_functions(self, kq):
        report = cp.verify_average_preservation(
            kq.space, kq.pair, kq.context("C123"), lambda y: 0.0, lambda x: 0.0
        )
        assert report.classical == 0.0 and report.quantum == 0.0

    def test_random_tables_on_all_representable_contexts(self, kq):
        rng = np.random.default_rng(3)
        family = dict(kq.contexts)
        for _ in range(5):
            f = {1.0: float(rng.normal()), -1.0: float(rng.normal())}
            g = {1.0: float(rng.normal()), -1.0: float(rng.normal())}
            for name, ctx in family.items():
                try:
                    report = cp.verify_average_preservation(
                        kq.space, kq.pair, ctx, f, g
                    )
                except cp.ContextualProbabilityError:
                    continue
                assert abs(report.classical - report.quantum) <= 1e-9

    def test_a_cell_reads_indicator_and_transition_row(self, kq):
        """On an a-cell the classical side is f(y) plus g against the
        cell's transition row, and the state is the cell's basis vector."""
        space, pair = kq.space, kq.pair
        t = cp.transition_matrix(space, pair, "b/a").rows
        f, g = {1.0: 0.3, -1.0: 2.7}, {1.0: -1.4, -1.0: 0.9}
        for i, (y, cell) in enumerate(zip(pair.a_values, pair.a_partition)):
            report = cp.verify_average_preservation(space, pair, cell, f, g)
            want = math.fsum([f[y], g[1.0] * t[i][0], g[-1.0] * t[i][1]])
            assert report.classical == want
            assert abs(report.classical - report.quantum) <= 1e-14

    def test_null_context_is_a_library_error(self, kq):
        with pytest.raises(cp.ZeroConditioningContext):
            cp.verify_average_preservation(
                kq.space, kq.pair, kq.space.empty_event(), lambda y: y, lambda x: x
            )

    def test_symmetrised_product_breaks_preservation(self, kq):
        # the operator map preserves sums f(a) + g(b); the symmetrised
        # product (ab + ba)/2 does not reproduce E(a b | C) in general
        space, pair = kq.space, kq.pair
        ctx = kq.context("C123")
        basis = cp.a_basis_for_context(space, pair, space.full_event())
        a_op = cp.operator_for_variable(pair.a_values, basis)
        b_op = cp.operator_for_b(pair)
        sym = cp.HermitianOperator(
            (np.asarray(a_op.matrix) @ np.asarray(b_op.matrix)
             + np.asarray(b_op.matrix) @ np.asarray(a_op.matrix)) / 2.0
        )
        psi = cp.build_amplitude(space, pair, ctx)
        quantum = cp.quantum_average(sym, psi)
        pc = space.probability(ctx)
        classical = sum(
            space.weights[i] * pair.a.values[i] * pair.b.values[i]
            for i in ctx.indices()
        ) / pc
        assert abs(quantum - classical) > 1e-3


class TestDistributionMismatch:
    def test_kq_eighth_closed_forms(self, kq):
        report = cp.distribution_mismatch(
            kq.space, kq.pair, kq.context("C234"), 1.0
        )
        q = 0.125
        assert report.classical_dist[-2.0] == pytest.approx(1 / 7, abs=1e-12)
        assert report.classical_dist[0.0] == pytest.approx(6 / 7, abs=1e-12)
        assert report.classical_dist[2.0] == 0.0
        s = math.sqrt(2 * q)
        k1 = min(report.quantum_dist, key=lambda k: abs(k - 2 * s))
        k2 = min(report.quantum_dist, key=lambda k: abs(k + 2 * s))
        assert k1 == pytest.approx(2 * s, abs=1e-10)
        assert k2 == pytest.approx(-2 * s, abs=1e-10)
        assert report.quantum_dist[k1] == pytest.approx(
            (1 - s) * (2 + s) / (4 * (1 - q)), abs=1e-10
        )
        assert report.quantum_dist[k2] == pytest.approx(
            (1 + s) * (2 - s) / (4 * (1 - q)), abs=1e-10
        )
        assert report.quantum_dist[k1] == pytest.approx(5 / 14, abs=1e-10)
        assert report.quantum_dist[k2] == pytest.approx(9 / 14, abs=1e-10)
        assert total_variation(report.classical_dist, report.quantum_dist) > 0.2
        assert report.classical_average == pytest.approx(-2 / 7, abs=1e-10)
        assert report.quantum_average == pytest.approx(-2 / 7, abs=1e-10)

    def test_requires_symmetric_values(self, kq):
        with pytest.raises(ValueError):
            cp.distribution_mismatch(kq.space, kq.pair, kq.context("C234"), 2.0)


class TestBasicContextClasses:
    def test_equivalence_with_reverse_double_stochasticity(self):
        # given a double stochastic forward matrix, the b-cells are
        # trigonometric (boundary) exactly when the reverse matrix is too
        for seed in range(30):
            doc = cp.generate_random_model(
                seed=seed, n_points=5, double_stochastic=True
            )
            space, pair = doc.space, doc.pair
            both = cp.transition_matrix(space, pair, "a/b").double_stochastic
            classes = []
            for bx in pair.b_partition:
                coeffs = cp.interference_coefficients(space, pair, bx)
                classes.append(coeffs.context_class)
            trig = all(
                c in (cp.ContextClass.TRIGONOMETRIC, cp.ContextClass.BOUNDARY)
                for c in classes
            )
            assert trig == both

    def test_boundary_coefficients_when_both_double_stochastic(self, kq):
        for j, bx in enumerate(kq.pair.b_partition):
            coeffs = cp.interference_coefficients(kq.space, kq.pair, bx)
            assert coeffs.lambdas[j] == pytest.approx(1.0, abs=1e-12)
            assert coeffs.lambdas[1 - j] == pytest.approx(-1.0, abs=1e-12)


class TestAmplitudeFromCoefficients:
    @pytest.mark.parametrize("convention", ("principal", "conjugate"))
    def test_carried_coefficients_give_the_same_state(self, convention):
        docs = [cp.generate_kq(q) for q in Q_GRID]
        docs += [cp.generate_random_model(seed=s, n_points=8) for s in range(20)]
        built = 0
        for doc in docs:
            space, pair = doc.space, doc.pair
            for ctx in doc.contexts.values():
                try:
                    coeffs = cp.interference_coefficients(space, pair, ctx)
                except cp.ContextualProbabilityError:
                    continue
                try:
                    psi = cp.build_amplitude(space, pair, ctx, convention)
                except (cp.MixedContext, cp.HyperbolicContext) as exc:
                    with pytest.raises(type(exc)):
                        cp.amplitude_from_coefficients(coeffs, convention)
                    continue
                carried = cp.amplitude_from_coefficients(coeffs, convention)
                np.testing.assert_array_equal(carried.components, psi.components)
                built += 1
        assert built > 50
