"""The tolerance policy: every tolerance lives in ``contextprob.tolerances``,
the boundary band around |lambda| = 1 is wide enough for the rounding of
the float coefficients, and the double stochastic decision is the exact
column deviation against ``DOUBLE_STOCHASTIC_TOL``."""

import ast
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import contextprob as cp
from contextprob import interference as itf
from contextprob.tolerances import BOUNDARY_TOL, DOUBLE_STOCHASTIC_TOL

SRC = Path(cp.__file__).parent


def test_no_tolerance_outside_the_policy_module():
    """No module but ``tolerances`` writes a float literal below 1e-3 or
    defines a module-level ``*TOL*``, ``*GATE*``, ``*SKIP*`` or ``*FLOOR*``
    name."""
    named = re.compile(r"(TOL|GATE|SKIP|FLOOR)")
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and type(node.value) is float
                and 0.0 < abs(node.value) < 1e-3
            ):
                offenders.append(f"{path.name}:{node.lineno}: {node.value!r}")
        for node in tree.body:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            for t in targets:
                if isinstance(t, ast.Name) and named.search(t.id):
                    offenders.append(f"{path.name}:{node.lineno}: {t.id}")
    assert offenders == []


def _exact_outcomes(space, pair, context):
    """(delta, lambda^2) of each b-outcome in exact rational arithmetic on
    the float weights, lambda^2 = delta^2 / (4 prod); None for an
    a-degenerate context."""
    w = [Fraction(x) for x in space.weights]

    def p(mask):
        return sum((w[i] for i in range(len(w)) if mask >> i & 1), Fraction(0))

    c = context.mask
    pc = p(c)
    pa = [p(ay.mask & c) / pc for ay in pair.a_partition]
    if 0 in pa:
        return None
    t = [
        [p(ay.mask & bx.mask) / p(ay.mask) for bx in pair.b_partition]
        for ay in pair.a_partition
    ]
    out = []
    for j, bx in enumerate(pair.b_partition):
        d = p(bx.mask & c) / pc - sum(pa[i] * t[i][j] for i in range(2))
        out.append((d, d * d / (4 * pa[0] * t[0][j] * pa[1] * t[1][j])))
    return out


def _exact_tag(lam_sq):
    if lam_sq == 1:
        return itf.OutcomeClass.BOUNDARY
    return itf.OutcomeClass.TRIGONOMETRIC if lam_sq < 1 else itf.OutcomeClass.HYPERBOLIC


@pytest.mark.parametrize("seed, ds", [(None, None), *product(range(20), (True, False))])
def test_float_class_matches_exact_class_outside_the_band(seed, ds):
    """Wherever the exact ||lambda| - 1| exceeds ``BOUNDARY_TOL``, the float
    coefficient has the exact class, and the float lambda is within
    ``BOUNDARY_TOL`` of the exact one; on kq(1/8) (seed None) and on random
    models, double stochastic and not."""
    if seed is None:
        doc = cp.generate_kq(0.125)
    else:
        doc = cp.generate_random_model(seed, 12, double_stochastic=ds)
    tol = Fraction(BOUNDARY_TOL)
    compared = 0
    for name, context in doc.contexts.items():
        exact = _exact_outcomes(doc.space, doc.pair, context)
        if exact is None:
            continue
        coeffs = itf.interference_coefficients(doc.space, doc.pair, context)
        for (d, lam_sq), got, tag in zip(exact, coeffs.lambdas, coeffs.tags):
            with localcontext() as ctx:
                ctx.prec = 60
                lam = (Decimal(lam_sq.numerator) / Decimal(lam_sq.denominator)).sqrt()
                err = abs(Decimal(got) - (lam if d >= 0 else -lam))
            assert err < Decimal(BOUNDARY_TOL), (name, got)
            if (1 - tol) ** 2 <= lam_sq <= (1 + tol) ** 2:
                continue
            assert tag is _exact_tag(lam_sq), (name, got, tag, float(lam_sq))
            compared += 1
    assert compared > 0


@pytest.mark.parametrize("name", ["C14", "C23"])
def test_kq_b_cells_are_exactly_on_the_boundary(kq, name):
    """kq(1/8) has weights exact in binary; its b-cells have lambda^2 = 1
    exactly, and the float coefficients classify them as boundary."""
    context = kq.context(name)
    exact = _exact_outcomes(kq.space, kq.pair, context)
    assert [lam_sq for _, lam_sq in exact] == [1, 1]
    coeffs = itf.interference_coefficients(kq.space, kq.pair, context)
    assert coeffs.context_class is itf.ContextClass.BOUNDARY
    assert all(tag is itf.OutcomeClass.BOUNDARY for tag in coeffs.tags)


def _exact_column_deviation(space, rows, cols):
    """max_j |sum_i P(R_i & C_j) / P(R_i) - 1| over the cells R_i of one
    partition and C_j of the other, in exact rational arithmetic on the
    float weights, from the point weights alone."""
    w = [Fraction(x) for x in space.weights]

    def p(mask):
        return sum((w[i] for i in range(len(w)) if mask >> i & 1), Fraction(0))

    return max(
        abs(sum(p(r.mask & c.mask) / p(r.mask) for r in rows) - 1) for c in cols
    )


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("direction", ["b/a", "a/b"])
@pytest.mark.parametrize("multiple", [0.5, 1.0, 2.0])
def test_double_stochastic_decision_matches_the_exact_deviation(
    multiple, direction, sign
):
    """Weights ((1-t)/2, t/2, (t+e)/2, (1-t-e)/2) on the square, t = 0.01:
    the "b/a" columns miss one by e, which is ``multiple`` times the bound,
    of either sign.  For "a/b" the pair is swapped, so the same deviation
    falls on that direction.  The flag is the exact deviation, rounded
    once, against the bound: set at half the bound, unset at twice it."""
    e = sign * multiple * DOUBLE_STOCHASTIC_TOL
    t = 0.01
    space = cp.FiniteKolmogorovSpace(
        ("w1", "w2", "w3", "w4"),
        (0.5 * (1 - t), 0.5 * t, 0.5 * (t + e), 0.5 * (1 - t - e)),
    )
    a = cp.RandomVariable((1.0, 1.0, -1.0, -1.0))
    b = cp.RandomVariable((1.0, -1.0, 1.0, -1.0))
    pair = cp.ReferencePair.from_variables(space, a, b)
    rows, cols = pair.a_partition, pair.b_partition
    if direction == "a/b":
        pair = cp.ReferencePair.from_variables(space, b, a)
    deviation = _exact_column_deviation(space, rows, cols)
    want = float(deviation) <= DOUBLE_STOCHASTIC_TOL
    assert cp.transition_matrix(space, pair, direction).double_stochastic is want
    if multiple != 1.0:
        assert want is (multiple < 1.0), float(deviation)
