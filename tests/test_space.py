import math
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import contextprob as cp
from conftest import member_fsum
from contextprob.models import model_from_dict
from contextprob.space import Event, pair_tables, total_probability_from_table
from contextprob.tolerances import IDENTITY_TOL


def spread_space(n: int) -> cp.FiniteKolmogorovSpace:
    """Seeded space whose weights span nine orders of magnitude, so that the
    order of a plain float sum would change its rounding."""
    rng = random.Random(n)
    raw = [rng.random() * 10.0 ** -rng.randrange(9) for _ in range(n)]
    total = math.fsum(raw)
    return cp.FiniteKolmogorovSpace(
        tuple(f"w{i}" for i in range(n)), tuple(w / total for w in raw)
    )


def wide_space(n: int) -> cp.FiniteKolmogorovSpace:
    """Seeded space with one subnormal weight (5e-324), weights from 1e-300
    up, and two near 0.5, so that the byte tables of the measure hold
    integers of over a thousand bits; shuffled so that the tiny weights fall
    in different bytes at each size."""
    rng = random.Random(n)
    tiny = [10.0 ** -rng.randrange(1, 301) * rng.random() for _ in range(n - 4)]
    raw = [5e-324, 1e-300, 0.5, *tiny]
    raw.append(1.0 - math.fsum(raw))
    rng.shuffle(raw)
    return cp.FiniteKolmogorovSpace(tuple(f"w{i}" for i in range(n)), tuple(raw))


# shared across examples, so later examples also read built one-cell tables;
# the sizes straddle the byte boundaries of the tables
SPREAD_SPACES = {n: spread_space(n) for n in (1, 7, 8, 9, 15, 16, 17, 64, 1500)}
WIDE_SPACES = {n: wide_space(n) for n in (8, 9, 15, 16, 17)}
ALL_SPACES = [*SPREAD_SPACES.values(), *WIDE_SPACES.values()]


@st.composite
def space_and_mask(draw):
    space = draw(st.sampled_from(ALL_SPACES))
    full = (1 << space.n) - 1
    mask = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    return space, mask


class TestEventAlgebra:
    def test_bitmask_ops_are_exact(self):
        e1 = Event(0b0110, 4)
        e2 = Event(0b0011, 4)
        assert (e1 & e2).mask == 0b0010
        assert len(e1) == 2
        assert list(e2.indices()) == [0, 1]

    def test_mask_outside_space_rejected(self):
        with pytest.raises(ValueError):
            Event(0b10000, 4)

    def test_mixed_spaces_rejected(self):
        with pytest.raises(ValueError):
            Event(1, 4) & Event(1, 5)


class TestSpaceConstruction:
    def test_zero_weight_point_rejected(self):
        with pytest.raises(ValueError):
            cp.FiniteKolmogorovSpace(("w1", "w2"), (1.0, 0.0))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            cp.FiniteKolmogorovSpace(("w1", "w2"), (0.5, 0.4))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            cp.FiniteKolmogorovSpace(("w1", "w1"), (0.5, 0.5))


class TestProbability:
    def test_empty_event_is_zero(self, kq):
        assert kq.space.probability(Event(0, kq.space.n)) == 0.0

    def test_full_space_is_one(self, kq):
        assert kq.space.probability(kq.space.full_event()) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_b1_cell_weight_sum(self, kq):
        # direct oracle: q + (1 - 2q)/2 at q = 1/8
        assert kq.space.probability(kq.context("C14")) == pytest.approx(
            0.125 + 0.375, abs=1e-15
        )

    def test_conditional_self_is_one(self, kq):
        c = kq.context("C123")
        assert kq.space.conditional(c, c) == 1.0

    def test_conditional_examples(self, kq):
        space, pair = kq.space, kq.pair
        # P(A_1 | C_123) = 1/(2q + 1) = 0.8 at q = 1/8
        assert space.conditional(pair.a_partition[0], kq.context("C123")) == (
            pytest.approx(0.8, abs=1e-14)
        )
        # P(B_1 | C_234) = (1 - 2q)/(2(1 - q)) = 3/7
        assert space.conditional(pair.b_partition[0], kq.context("C234")) == (
            pytest.approx(3.0 / 7.0, abs=1e-14)
        )

    def test_zero_conditioning_raises(self, kq):
        with pytest.raises(cp.ZeroConditioningContext):
            kq.space.conditional(kq.context("C123"), Event(0, kq.space.n))


class TestMemoisedMeasure:
    @given(space_and_mask())
    def test_equals_fsum_of_member_weights(self, case):
        space, mask = case
        expected = member_fsum(space, mask)
        assert space.probability(Event(mask, space.n)) == expected
        # a repeated call, from the tables built by the first, gives the same float
        assert space.probability(Event(mask, space.n)) == expected

    @pytest.mark.parametrize("n", sorted(SPREAD_SPACES))
    def test_empty_and_full_events(self, n):
        space = spread_space(n)
        for _ in range(2):
            assert space.probability(Event(0, space.n)) == 0.0
            assert space.probability(space.full_event()) == math.fsum(
                space.weights
            )

    @pytest.mark.parametrize("n", sorted(WIDE_SPACES))
    def test_wide_weights_are_exact(self, n):
        space = wide_space(n)
        assert min(space.weights) == 5e-324
        assert max(space.weights) <= 0.5
        full = (1 << n) - 1
        rng = random.Random(n)
        masks = [0, full, *(rng.getrandbits(n) for _ in range(200))]
        masks += [1 << i for i in range(n)] + [full ^ 1 << i for i in range(n)]
        for mask in masks:
            assert space.probability(Event(mask, n)) == member_fsum(space, mask)
        for i, w in enumerate(space.weights):
            assert space.probability(Event(1 << i, n)) == w

    def test_event_of_another_space_rejected(self, kq):
        kq.space.probability(kq.space.full_event())
        with pytest.raises(ValueError):
            kq.space.probability(Event(0b1111, 5))

    def test_caches_outside_equality_hash_and_repr(self):
        s1 = cp.FiniteKolmogorovSpace(("w1", "w2"), (0.25, 0.75))
        s2 = cp.FiniteKolmogorovSpace(("w1", "w2"), (0.25, 0.75))
        s1.probability(s1.full_event())
        a = cp.RandomVariable((1.0, -1.0))
        pair_tables(s1, cp.ReferencePair.from_variables(s1, a, a))
        assert "_byte_tables" in vars(s1) and s1._pairs
        assert "_byte_tables" not in vars(s2) and not s2._pairs
        assert s1 == s2
        assert hash(s1) == hash(s2)
        assert repr(s1) == repr(s2)
        assert "_pairs" not in repr(s1) and "_byte_tables" not in repr(s1)


class TestPointLookup:
    def test_index_follows_point_order(self):
        space = spread_space(64)
        assert [space.index(p) for p in space.points] == list(range(64))

    def test_unknown_point_messages(self):
        space = cp.FiniteKolmogorovSpace(("w1", "w2"), (0.25, 0.75))
        with pytest.raises(KeyError, match=re.escape("unknown point 'w9'")):
            space.index("w9")
        raw = {
            "points": [{"id": "w1", "p": 0.25}, {"id": "w2", "p": 0.75}],
            "variables": {
                "a": {"w1": 1.0, "w2": -1.0},
                "b": {"w1": 1.0, "w2": -1.0, "w9": 1.0},
            },
            "contexts": {},
        }
        with pytest.raises(
            cp.ModelValidationError,
            match=re.escape("variable 'b' names unknown points ['w9']"),
        ):
            model_from_dict(raw)
        del raw["variables"]["b"]["w9"]
        raw["contexts"]["C"] = ["w1", "w9"]
        with pytest.raises(
            cp.ModelValidationError,
            match=re.escape("context 'C' references unknown point 'w9'"),
        ):
            model_from_dict(raw)

    def test_loader_contexts(self):
        raw = {
            "points": [{"id": f"w{i}", "p": 0.125} for i in range(1, 9)],
            "variables": {
                "a": {f"w{i}": float(i % 2) for i in range(1, 9)},
                "b": {f"w{i}": float(i < 5) for i in range(1, 9)},
            },
            # a repeated member merges into one bit
            "contexts": {"C": ["w8", "w2", "w8", "w2", "w1"], "E": []},
        }
        doc = model_from_dict(raw)
        assert doc.contexts["C"] == Event(0b10000011, 8)
        assert doc.contexts["E"] == Event(0, 8)
        assert [doc.space.index(f"w{i}") for i in range(1, 9)] == list(range(8))
        with pytest.raises(KeyError, match=re.escape("unknown point 'w0'")):
            doc.space.event(["w1", "w0", "w2"])
        raw["contexts"]["D"] = ["w1", "w1", "w10"]
        with pytest.raises(
            cp.ModelValidationError,
            match=re.escape("context 'D' references unknown point 'w10'"),
        ):
            model_from_dict(raw)

    def test_duplicate_point_messages(self):
        with pytest.raises(ValueError, match="point identifiers must be unique"):
            cp.FiniteKolmogorovSpace(("w1", "w2", "w1"), (0.25, 0.25, 0.5))
        raw = {
            "points": [{"id": "w1", "p": 0.5}, {"id": "w1", "p": 0.5}],
            "variables": {"a": {"w1": 1.0}, "b": {"w1": 1.0}},
        }
        with pytest.raises(
            cp.ModelValidationError, match=re.escape("duplicate point id 'w1'")
        ):
            model_from_dict(raw)


class TestReferencePair:
    def test_value_order_first_occurrence(self, kq):
        assert kq.pair.a_values == (1.0, -1.0)
        assert kq.pair.b_values == (1.0, -1.0)

    def test_partitions_cover_disjointly(self, kq):
        pair = kq.pair
        union = pair.a_partition[0].mask | pair.a_partition[1].mask
        assert union == kq.space.full_event().mask
        assert (pair.a_partition[0] & pair.a_partition[1]).is_empty()

    def test_partitions_are_preimages(self, kq):
        assert kq.space.members(kq.pair.a_partition[0]) == ("w1", "w2")
        assert kq.space.members(kq.pair.b_partition[0]) == ("w1", "w4")


class TestTransitionMatrix:
    def test_kq_closed_form(self, kq):
        t = cp.transition_matrix(kq.space, kq.pair)
        np.testing.assert_allclose(
            np.asarray(t.rows), [[0.25, 0.75], [0.75, 0.25]], atol=1e-15
        )

    def test_identical_variables_give_identity(self):
        space = cp.FiniteKolmogorovSpace(("w1", "w2"), (0.3, 0.7))
        v = cp.RandomVariable((1.0, -1.0))
        pair = cp.ReferencePair.from_variables(space, v, v)
        t = cp.transition_matrix(space, pair)
        np.testing.assert_allclose(np.asarray(t.rows), np.eye(2), atol=1e-15)

    def test_skewed_model(self, skewed):
        space, pair = skewed
        t = cp.transition_matrix(space, pair)
        np.testing.assert_allclose(
            np.asarray(t.rows),
            [[1.0 / 3.0, 2.0 / 3.0], [4.0 / 7.0, 3.0 / 7.0]],
            atol=1e-15,
        )

    def test_rows_sum_to_one(self, skewed):
        space, pair = skewed
        for direction in ("b/a", "a/b"):
            t = cp.transition_matrix(space, pair, direction)
            np.testing.assert_allclose(np.asarray(t.rows).sum(axis=1), 1.0, atol=1e-14)

    def test_memoised_per_space_and_direction(self, skewed):
        space, pair = skewed
        t_ba = cp.transition_matrix(space, pair)
        assert cp.transition_matrix(space, pair, "b/a") == t_ba
        assert cp.transition_matrix(space, pair, "a/b") != t_ba

    def test_equal_partitions_keep_their_own_values(self, skewed):
        space, pair = skewed
        relabelled = cp.ReferencePair.from_variables(
            space,
            cp.RandomVariable(tuple(2.0 * v + 3.0 for v in pair.a.values)),
            cp.RandomVariable(tuple(-v for v in pair.b.values)),
        )
        assert relabelled.a_partition == pair.a_partition
        assert relabelled.b_partition == pair.b_partition
        for direction in ("b/a", "a/b"):
            t = cp.transition_matrix(space, pair, direction)
            t2 = cp.transition_matrix(space, relabelled, direction)
            np.testing.assert_array_equal(np.asarray(t.rows), np.asarray(t2.rows))
        # the matrices hold no values: each pair keeps its own
        assert (relabelled.a_values, relabelled.b_values) == ((5.0, 1.0), (-1.0, 1.0))
        assert (pair.a_values, pair.b_values) == ((1.0, -1.0), (1.0, -1.0))

    def test_rows_off_one_report_the_deviation(self):
        with pytest.raises(cp.InvariantViolation) as info:
            cp.TransitionMatrix([[0.5, 0.6], [0.5, 0.5]])
        deviation = abs(0.5 + 0.6 - 1.0)
        assert str(info.value) == (
            "transition matrix rows do not sum to one (worst deviation "
            f"{deviation!r}, tolerance {IDENTITY_TOL!r})"
        )

    def test_null_conditioning_cell_raises_every_call(self):
        space = cp.FiniteKolmogorovSpace(("w1", "w2"), (0.3, 0.7))
        v = cp.RandomVariable((1.0, -1.0))
        cells = (Event(0b01, 2), Event(0b10, 2))
        pair = cp.ReferencePair(
            v, v, (1.0, -1.0, 0.0), (1.0, -1.0),
            (*cells, Event(0, space.n)), cells,
        )
        for _ in range(3):
            with pytest.raises(cp.DegenerateCell):
                cp.transition_matrix(space, pair)
        # the failing direction leaves the other one untouched
        t = cp.transition_matrix(space, pair, "a/b")
        np.testing.assert_array_equal(
            np.asarray(t.rows), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
        )


class TestIncompatibility:
    def test_kq_incompatible(self, kq):
        assert cp.are_incompatible(kq.space, kq.pair)

    def test_identical_variables_compatible(self):
        space = cp.FiniteKolmogorovSpace(("w1", "w2"), (0.3, 0.7))
        v = cp.RandomVariable((1.0, -1.0))
        pair = cp.ReferencePair.from_variables(space, v, v)
        assert not cp.are_incompatible(space, pair)

    def test_inclusion_breaks_incompatibility(self):
        space = cp.FiniteKolmogorovSpace(
            ("w1", "w2", "w3"), (0.2, 0.3, 0.5)
        )
        a = cp.RandomVariable((1.0, 1.0, -1.0))
        b = cp.RandomVariable((1.0, -1.0, -1.0))
        pair = cp.ReferencePair.from_variables(space, a, b)
        # B_1 = {w1} is contained in A_1 = {w1, w2}
        assert not cp.are_incompatible(space, pair)

    def test_memo_keeps_pairs_apart(self, skewed):
        # pairs sharing one partition, or both partitions with other values,
        # each get their own answer in whichever order they are asked
        space, pair = skewed
        same_cells = cp.ReferencePair.from_variables(
            space,
            cp.RandomVariable(tuple(-v for v in pair.a.values)),
            cp.RandomVariable(tuple(-v for v in pair.b.values)),
        )
        assert same_cells.a_partition == pair.a_partition
        assert same_cells.a_values != pair.a_values
        compatible = cp.ReferencePair.from_variables(space, pair.a, pair.a)
        swapped = cp.ReferencePair.from_variables(space, pair.b, pair.a)
        expected = [(pair, True), (compatible, False), (same_cells, True),
                    (swapped, True), (compatible, False)]
        for order in (expected, expected[::-1]):
            fresh = cp.FiniteKolmogorovSpace(space.points, space.weights)
            for p, want in order:
                assert cp.are_incompatible(fresh, p) is want
                assert cp.are_incompatible(fresh, p) is want


class TestIncompatibilityStructure:
    def test_kq_both_hold(self, kq):
        report = cp.check_incompatibility_structure(kq.space, kq.pair)
        assert report.cell_nonempty and report.no_inclusions

    def test_seven_point_counterexample(self):
        # three-cell partitions where no inclusion holds yet one joint cell
        # is empty: A2 = {w4, w5} never meets B3 = {w3, w7}
        space = cp.FiniteKolmogorovSpace(
            tuple(f"w{i}" for i in range(1, 8)), tuple([1.0 / 7.0] * 7)
        )
        a = cp.RandomVariable((1, 1, 1, 2, 2, 3, 3))
        b = cp.RandomVariable((1, 2, 3, 1, 2, 2, 3))
        pair = cp.ReferencePair.from_variables(space, a, b)
        report = cp.check_incompatibility_structure(space, pair)
        assert report.no_inclusions
        assert not report.cell_nonempty

    def test_dichotomous_equivalence(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(4, 9))
            w = rng.dirichlet(np.ones(n) * 2.0)
            a_vals = rng.integers(0, 2, size=n)
            b_vals = rng.integers(0, 2, size=n)
            if len(set(a_vals.tolist())) < 2 or len(set(b_vals.tolist())) < 2:
                continue
            space = cp.FiniteKolmogorovSpace(
                tuple(f"w{i}" for i in range(n)), tuple(float(x) for x in w)
            )
            a = cp.RandomVariable(tuple(float(v) for v in a_vals))
            b = cp.RandomVariable(tuple(float(v) for v in b_vals))
            pair = cp.ReferencePair.from_variables(space, a, b)
            report = cp.check_incompatibility_structure(space, pair)
            assert report.cell_nonempty == report.no_inclusions


class TestClassicalTotalProbability:
    def test_matches_direct_value(self, skewed):
        space, pair = skewed
        ctx = space.event(("w1", "w2", "w3"))
        table = pair_tables(space, pair).table(ctx)
        decomp = total_probability_from_table(pair, table)
        for j, x in enumerate(pair.b_values):
            direct = space.conditional(pair.b_partition[j], ctx)
            assert decomp[x] == pytest.approx(direct, abs=1e-12)

    def test_kq_c123_value(self, kq):
        table = pair_tables(kq.space, kq.pair).table(kq.context("C123"))
        decomp = total_probability_from_table(kq.pair, table)
        # 2q/(2q + 1) = 0.2 at q = 1/8
        assert decomp[1.0] == pytest.approx(0.2, abs=1e-14)

    def test_uniform_independent_pair(self):
        space = cp.FiniteKolmogorovSpace(
            ("w1", "w2", "w3", "w4"), (0.25, 0.25, 0.25, 0.25)
        )
        a = cp.RandomVariable((1.0, 1.0, -1.0, -1.0))
        b = cp.RandomVariable((1.0, -1.0, 1.0, -1.0))
        pair = cp.ReferencePair.from_variables(space, a, b)
        decomp = total_probability_from_table(pair, pair_tables(space, pair).free)
        assert decomp[1.0] == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_context_raises(self, kq):
        with pytest.raises(cp.DegenerateCell):
            table = pair_tables(kq.space, kq.pair).table(kq.pair.a_partition[0])
            total_probability_from_table(kq.pair, table)


class TestDoubleStochasticity:
    def test_kq_matrix(self, kq):
        t = cp.transition_matrix(kq.space, kq.pair)
        assert t.double_stochastic
        t2 = cp.transition_matrix(kq.space, kq.pair, "a/b")
        assert t2.double_stochastic

    def test_degenerate_columns(self):
        m = cp.TransitionMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert not m.double_stochastic

    def test_skewed_matrix(self, skewed):
        space, pair = skewed
        assert not cp.transition_matrix(space, pair).double_stochastic

    def test_flag_and_rows_match_the_entries(self, kq, skewed, ds_skewed):
        for space, pair in ((kq.space, kq.pair), skewed, ds_skewed):
            for direction in ("b/a", "a/b"):
                t = cp.transition_matrix(space, pair, direction)
                assert t.rows == tuple(tuple(r) for r in np.asarray(t.rows).tolist())
                col_dev = np.max(np.abs(np.asarray(t.rows).sum(axis=0) - 1.0))
                assert t.double_stochastic is bool(col_dev <= 1e-10)

    def test_swapped_pairs_keep_their_own_flags(self, ds_skewed):
        # b conditioned on a is double stochastic here, a on b is not; the
        # swapped pair asks for the same cells in the other roles
        space, pair = ds_skewed
        swapped = cp.ReferencePair.from_variables(space, pair.b, pair.a)
        relabelled = cp.ReferencePair.from_variables(
            space, pair.a, cp.RandomVariable(tuple(-v for v in pair.b.values))
        )
        for p, direction, want in (
            (pair, "b/a", True), (swapped, "b/a", False),
            (pair, "a/b", False), (swapped, "a/b", True),
            (relabelled, "b/a", True), (relabelled, "a/b", False),
        ):
            t = cp.transition_matrix(space, p, direction)
            assert t.double_stochastic is want


class TestSymmetricConditioning:
    def test_kq_symmetric(self, kq):
        assert cp.is_symmetrically_conditioned(kq.space, kq.pair)

    def test_nonuniform_marginals_not_symmetric(self, skewed):
        space, pair = skewed
        assert not cp.is_symmetrically_conditioned(space, pair)

    def test_equivalence_on_random_models(self):
        from conftest import make_pair_model

        rng = np.random.default_rng(5)
        seen_true = seen_false = 0
        cases = [cp.generate_random_model(seed=s, n_points=5) for s in range(20)]
        cases = [(d.space, d.pair) for d in cases]
        # uniform-marginal symmetric models: both matrices double stochastic
        for _ in range(20):
            t = float(rng.uniform(0.05, 0.95))
            cases.append(make_pair_model((t / 2, (1 - t) / 2, t / 2, (1 - t) / 2)))
        for space, pair in cases:
            sym = cp.is_symmetrically_conditioned(space, pair)
            both_ds = (
                cp.transition_matrix(space, pair).double_stochastic
                and cp.transition_matrix(space, pair, "a/b").double_stochastic
            )
            assert sym == both_ds
            seen_true += sym
            seen_false += not sym
        assert seen_true and seen_false


class TestMeasureInvariants:
    def test_bayes_consistency_random(self):
        for seed in range(20):
            doc = cp.generate_random_model(seed=seed, n_points=6)
            space, pair = doc.space, doc.pair
            events = list(pair.a_partition) + list(pair.b_partition)
            for name, c in doc.contexts.items():
                pc = space.probability(c)
                if pc == 0.0:
                    continue
                for e in events:
                    assert space.conditional(e, c) * pc == pytest.approx(
                        space.probability(e & c), abs=1e-12
                    )

    def test_partition_closure_random(self):
        for seed in range(20):
            doc = cp.generate_random_model(seed=seed, n_points=5)
            space, pair = doc.space, doc.pair
            for c in doc.contexts.values():
                total = math.fsum(
                    space.conditional(ay, c) for ay in pair.a_partition
                )
                assert total == pytest.approx(1.0, abs=1e-12)
