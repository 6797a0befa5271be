import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import contextprob as cp
from contextprob.cli import main
from contextprob.models import dumps_model, loads_model, model_from_dict

DATA = Path(__file__).parent / "data"


def minimal_doc(weights=(0.125, 0.375, 0.125, 0.375)):
    return {
        "points": [
            {"id": f"w{i + 1}", "p": w} for i, w in enumerate(weights)
        ],
        "variables": {
            "a": {"w1": 1.0, "w2": 1.0, "w3": -1.0, "w4": -1.0},
            "b": {"w1": 1.0, "w2": -1.0, "w3": -1.0, "w4": 1.0},
        },
        "contexts": {"C123": ["w1", "w2", "w3"]},
    }


class TestLoader:
    def test_minimal_document(self):
        doc = model_from_dict(minimal_doc())
        assert doc.space.points == ("w1", "w2", "w3", "w4")
        assert doc.pair_names == ("a", "b")
        assert doc.space.members(doc.context("C123")) == ("w1", "w2", "w3")

    def test_rejects_nonpositive_weight(self):
        raw = minimal_doc()
        raw["points"][0]["p"] = 0.0
        with pytest.raises(cp.ModelValidationError):
            model_from_dict(raw)

    def test_rejects_bad_weight_sum(self):
        raw = minimal_doc((0.1, 0.3, 0.1, 0.4))
        with pytest.raises(cp.ModelValidationError):
            model_from_dict(raw)

    def test_renormalises_small_drift(self):
        raw = minimal_doc()
        raw["points"][0]["p"] = 0.125 + 4e-10
        doc = model_from_dict(raw)
        assert math.fsum(doc.space.weights) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_duplicate_ids(self):
        raw = minimal_doc()
        raw["points"][1]["id"] = "w1"
        with pytest.raises(cp.ModelValidationError):
            model_from_dict(raw)

    def test_rejects_partial_variable(self):
        raw = minimal_doc()
        del raw["variables"]["a"]["w3"]
        with pytest.raises(cp.ModelValidationError):
            model_from_dict(raw)

    def test_rejects_unknown_context_member(self):
        raw = minimal_doc()
        raw["contexts"]["C123"] = ["w1", "nope"]
        with pytest.raises(cp.ModelValidationError):
            model_from_dict(raw)

    def test_context_members_any_sequence_but_a_string(self):
        raw = minimal_doc()
        raw["contexts"]["C123"] = ("w1", "w2", "w3")
        doc = model_from_dict(raw)
        assert doc.space.members(doc.context("C123")) == ("w1", "w2", "w3")
        for members in ("w1", {"w1": 1}, 3):
            raw["contexts"]["C123"] = members
            with pytest.raises(
                cp.ModelValidationError,
                match=r"^context 'C123' must be an array of point ids$",
            ):
                model_from_dict(raw)

    def test_rejects_invalid_json(self):
        with pytest.raises(cp.ModelValidationError):
            loads_model("{not json")

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    def test_rejects_nonfinite_variable_value(self, value):
        raw = minimal_doc()
        raw["variables"]["a"]["w1"] = value
        with pytest.raises(cp.ModelValidationError, match="not finite"):
            model_from_dict(raw)

    @pytest.mark.parametrize("value", (None, [1.0]))
    def test_rejects_non_numeric_variable_value(self, value):
        raw = minimal_doc()
        raw["variables"]["b"]["w2"] = value
        with pytest.raises(cp.ModelValidationError):
            model_from_dict(raw)

    @pytest.mark.parametrize("value", ("1.0", True, None))
    def test_variable_values_must_be_json_numbers(self, value):
        raw = minimal_doc()
        raw["variables"]["b"]["w2"] = value
        with pytest.raises(cp.ModelValidationError) as info:
            loads_model(json.dumps(raw))
        assert str(info.value) == "value of variable 'b' at 'w2' must be a number"

    def test_rejects_nan_literal_in_json_text(self):
        # json.loads accepts the non-standard NaN literal; the loader must not
        text = json.dumps(minimal_doc()).replace('"w1": 1.0', '"w1": NaN', 1)
        assert "NaN" in text
        with pytest.raises(cp.ModelValidationError, match="not finite"):
            loads_model(text)

    @pytest.mark.parametrize("pair", ("ab", ["a"], ["a", "b", "a"], [["a"], "b"]))
    def test_rejects_malformed_reference_pair(self, pair):
        raw = minimal_doc()
        raw["reference_pair"] = pair
        with pytest.raises(cp.ModelValidationError):
            model_from_dict(raw)

    def test_explicit_reference_pair(self):
        raw = minimal_doc()
        raw["variables"]["c"] = {"w1": 0.0, "w2": 1.0, "w3": 2.0, "w4": 3.0}
        raw["reference_pair"] = ["a", "c"]
        doc = model_from_dict(raw)
        assert doc.pair_names == ("a", "c")


class TestCanonicalSerialisation:
    def test_roundtrip_is_fixed_point(self):
        doc = cp.generate_kq(0.3)
        text1 = dumps_model(doc)
        doc2 = loads_model(text1)
        text2 = dumps_model(doc2)
        assert text1 == text2
        doc3 = loads_model(text2)
        assert dumps_model(doc3) == text2

    def test_fixed_point_after_renormalisation(self):
        raw = minimal_doc()
        raw["points"][0]["p"] = 0.125 + 4e-10
        doc = model_from_dict(raw)
        text1 = dumps_model(doc)
        assert dumps_model(loads_model(text1)) == text1

    def test_seventeen_digit_floats(self):
        doc = cp.generate_kq(1.0 / 3.0)
        text = dumps_model(doc)
        assert "0.33333333333333331" in text

    def test_canonical_output_is_valid_json(self):
        doc = cp.generate_kq(0.125)
        parsed = json.loads(dumps_model(doc))
        assert parsed["points"][0]["id"] == "w1"
        assert sorted(parsed["contexts"]) == list(parsed["contexts"])


class TestKqGenerator:
    @pytest.mark.parametrize("q", (0.05, 0.125, 0.25, 0.4))
    def test_weights(self, q):
        doc = cp.generate_kq(q)
        assert doc.space.weights == (
            q, (1 - 2 * q) / 2, q, (1 - 2 * q) / 2
        )

    def test_uniform_marginals(self, kq):
        for e in (*kq.pair.a_partition, *kq.pair.b_partition):
            assert kq.space.probability(e) == pytest.approx(0.5, abs=1e-15)

    def test_transition_matrix(self, kq):
        t = cp.transition_matrix(kq.space, kq.pair)
        np.testing.assert_allclose(
            np.asarray(t.rows), [[0.25, 0.75], [0.75, 0.25]], atol=1e-15
        )

    def test_context_catalogue(self, kq):
        assert len(kq.contexts) == 11
        assert "Omega" in kq.contexts
        assert len(kq.context("Omega")) == 4

    @pytest.mark.parametrize("q", (0.0, 0.5, -0.1, 1.0))
    def test_q_out_of_range(self, q):
        with pytest.raises(cp.QOutOfRange):
            cp.generate_kq(q)


class TestRandomGenerator:
    def test_deterministic_for_fixed_seed(self):
        d1 = cp.generate_random_model(seed=42, n_points=6)
        d2 = cp.generate_random_model(seed=42, n_points=6)
        assert dumps_model(d1) == dumps_model(d2)

    @pytest.mark.parametrize(
        "stem, kwargs, argv",
        [
            (
                "random_3x3_seed4",
                dict(seed=4, n_points=9, value_arities=(3, 3), n_contexts=6),
                ["--seed", "4", "--points", "9", "--arity-a", "3",
                 "--arity-b", "3", "--contexts", "6"],
            ),
            (
                "random_ds_seed7",
                dict(seed=7, n_points=8, double_stochastic=True, n_contexts=5),
                ["--seed", "7", "--points", "8", "--double-stochastic",
                 "--contexts", "5"],
            ),
        ],
    )
    def test_stream_matches_committed_model(self, stem, kwargs, argv, capsys):
        # the committed files were written by earlier versions of the
        # generator, so its seeded stream is pinned across versions
        want = (DATA / f"{stem}.model.json").read_text()
        assert dumps_model(cp.generate_random_model(**kwargs)) == want
        assert main(["gen", "random", *argv]) == 0
        assert capsys.readouterr().out == want

    def test_different_seeds_differ(self):
        d1 = cp.generate_random_model(seed=1, n_points=6)
        d2 = cp.generate_random_model(seed=2, n_points=6)
        assert dumps_model(d1) != dumps_model(d2)

    def test_double_stochastic_constraint(self):
        for seed in range(20):
            doc = cp.generate_random_model(
                seed=seed, n_points=5, double_stochastic=True
            )
            t = cp.transition_matrix(doc.space, doc.pair)
            assert t.double_stochastic

    def test_not_double_stochastic_constraint(self):
        for seed in range(20):
            doc = cp.generate_random_model(
                seed=seed, n_points=5, double_stochastic=False
            )
            t = cp.transition_matrix(doc.space, doc.pair)
            assert not t.double_stochastic

    def test_incompatible_constraint(self):
        for seed in range(20):
            doc = cp.generate_random_model(seed=seed, n_points=7)
            assert cp.are_incompatible(doc.space, doc.pair)

    def test_three_valued_arities(self):
        doc = cp.generate_random_model(
            seed=5, n_points=11, value_arities=(3, 3)
        )
        assert len(doc.pair.a_values) == 3
        assert len(doc.pair.b_values) == 3
        assert cp.are_incompatible(doc.space, doc.pair)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            cp.generate_random_model(seed=0, n_points=3)

    @pytest.mark.parametrize(
        "argv, digests",
        [
            (["--points", "6"],
             ["aa27f336479ec148", "209e58dcb274a124", "26ab36cfc823f6d3",
              "1cec3fc8746aa7e6", "b64018dd98fe5185", "471e7f284cddaaf0"]),
            (["--points", "9", "--arity-a", "3", "--arity-b", "3"],
             ["54ae6c55bebeba99", "0e617db1bf84677b", "fc68ff84a71e762b",
              "d3ce47f400f51d1c", "e60bd8de442d768f", "908d886088957300"]),
            (["--points", "5", "--double-stochastic"],
             ["0533334f231fc9ee", "a9e0ca7775eb874e", "0dcab1d354a14203",
              "da8887bcfa6ea8c9", "97d088d763e5ee85", "3b0b95e99e483232"]),
        ],
    )
    def test_incompatible_stream_pinned(self, argv, digests, capsys):
        # sha256 prefixes of the models that seeds 0-5 gave before the
        # compatible mode seeded its own points
        for seed, want in enumerate(digests):
            assert main(["gen", "random", "--seed", str(seed), *argv]) == 0
            out = capsys.readouterr().out.encode()
            assert hashlib.sha256(out).hexdigest()[:16] == want

    def test_compatible_mode_builds_compatible_pairs(self):
        compatible = []
        for seed in range(51):
            doc = cp.generate_random_model(
                seed=seed, n_points=6, incompatible=False
            )
            assert doc.pair.a_values == doc.pair.b_values == (1.0, -1.0)
            if cp.are_incompatible(doc.space, doc.pair) is False:
                compatible.append(seed)
        assert compatible

    @pytest.mark.parametrize("arities", [(2, 2), (2, 3), (3, 2), (4, 3)])
    def test_compatible_mode_needs_a_point_per_value_only(self, arities):
        n = max(arities)
        doc = cp.generate_random_model(
            seed=0, n_points=n, value_arities=arities, incompatible=False
        )
        assert doc.space.n == n
        assert (len(doc.pair.a_values), len(doc.pair.b_values)) == arities
        assert doc.pair.a_values == tuple(np.linspace(1.0, -1.0, arities[0]))
        assert doc.pair.b_values == tuple(np.linspace(1.0, -1.0, arities[1]))
        with pytest.raises(ValueError, match="too few points"):
            cp.generate_random_model(
                seed=0, n_points=n - 1, value_arities=arities, incompatible=False
            )

    def test_retry_budget_exhaustion(self):
        with pytest.raises(cp.ConstraintUnsatisfiable):
            cp.generate_random_model(seed=0, n_points=4, max_retries=0)
