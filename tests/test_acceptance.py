"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values marked as closed forms are evaluated from their
formulas; everything else is checked against brute-force weight sums
computed inside this module, independently of the library code paths.
"""

import itertools
import json
import math
import subprocess
import sys

import numpy as np
from conftest import total_variation

import contextprob as cp
from contextprob import interference as itf
from contextprob.hyperbolic import HyperbolicNumber
from contextprob.models import save_model
from contextprob.multivalued import build_amplitude_nvalued
from contextprob.tolerances import OFFSET_TOL

Q_GRID = (0.05, 0.125, 0.25, 0.4)


def _line(n: int, ok: bool, desc: str) -> None:
    print(f"[acceptance] criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {desc}")


def closest_key(dist, value, tol=1e-9):
    key = min(dist, key=lambda k: abs(k - value))
    assert abs(key - value) <= tol
    return key


def brute_conditional(space, b, c):
    """Oracle: conditional probability from raw weight sums."""
    w = space.weights
    cs = set(c.indices())
    return sum(w[i] for i in set(b.indices()) & cs) / sum(w[i] for i in cs)


def brute_lambda(space, pair, context, j):
    """Oracle: incompatibility coefficient from raw weight sums."""
    w = space.weights
    ctx = set(context.indices())
    bx = set(pair.b_partition[j].indices())
    pc = sum(w[i] for i in ctx)
    direct = sum(w[i] for i in ctx & bx) / pc
    total, prod = 0.0, 1.0
    for ay in pair.a_partition:
        cell = set(ay.indices())
        p_ay = sum(w[i] for i in cell)
        p_ay_c = sum(w[i] for i in cell & ctx) / pc
        p_bx_ay = sum(w[i] for i in cell & bx) / p_ay
        total += p_bx_ay * p_ay_c
        prod *= p_ay_c * p_bx_ay
    return (direct - total) / (2.0 * math.sqrt(prod))


def all_nondegenerate_contexts(space, pair):
    for mask in range(1, 1 << space.n):
        ctx = cp.Event(mask, space.n)
        if all(
            not (ay & ctx).is_empty() for ay in pair.a_partition
        ):
            yield ctx


def test_criterion_01_lambda_closed_forms():
    """Interference coefficients of the four three-point contexts."""
    closed = {
        "C123": lambda q: -math.sqrt(1 - 2 * q) / 2,
        "C124": lambda q: math.sqrt(q / 2),
        "C134": lambda q: math.sqrt(1 - 2 * q) / 2,
        "C234": lambda q: -math.sqrt(q / 2),
    }
    worst = 0.0
    for q in Q_GRID:
        doc = cp.generate_kq(q)
        for name, form in closed.items():
            ctx = doc.context(name)
            brute = brute_lambda(doc.space, doc.pair, ctx, 0)
            lam = cp.interference_coefficients(doc.space, doc.pair, ctx).lambdas[0]
            worst = max(worst, abs(form(q) - brute), abs(lam - brute))
    ok = worst <= 1e-12
    _line(1, ok, f"lambda closed forms, worst residual {worst:.2e}")
    assert ok


def test_criterion_02_amplitude_golden():
    """Componentwise state vectors, and two contexts with one state."""
    worst = 0.0
    exact_ok = True
    for q in Q_GRID:
        doc = cp.generate_kq(q)
        space, pair = doc.space, doc.pair
        h = math.sqrt((1 - 2 * q) / 2)
        psi24 = cp.build_amplitude(space, pair, doc.context("C24"))
        psi13 = cp.build_amplitude(space, pair, doc.context("C13"), "conjugate")
        for got, want in (
            (psi24.component(1.0), complex(math.sqrt(q), h)),
            (psi24.component(-1.0), complex(h, -math.sqrt(q))),
            (psi13.component(1.0), complex(math.sqrt(q), -h)),
            (psi13.component(-1.0), complex(h, math.sqrt(q))),
        ):
            worst = max(worst, abs(got - want))
        for j, name in enumerate(("C14", "C23")):
            psi = cp.build_amplitude(space, pair, doc.context(name))
            exact_ok &= psi.components[1 - j] == 0.0
            worst = max(worst, abs(psi.components[j] - 1.0))
    # the map from contexts to states is not injective: at q = 1/8, Omega
    # and C13 have equal a- and b-profiles, so the same principal state
    doc = cp.generate_kq(0.125)
    omega, c13 = (
        cp.interference_coefficients(doc.space, doc.pair, doc.context(name))
        for name in ("Omega", "C13")
    )
    shared = (
        (omega.a_profile, omega.b_profile) == (c13.a_profile, c13.b_profile)
        and cp.amplitude_from_coefficients(omega).components
        == cp.amplitude_from_coefficients(c13).components
    )
    ok = worst <= 1e-12 and exact_ok and shared
    _line(
        2,
        ok,
        f"amplitudes componentwise (worst {worst:.2e}), basis cells exact, "
        f"Omega and C13 {'share' if shared else 'do not share'} one state",
    )
    assert worst <= 1e-12
    assert exact_ok, "b-cell amplitudes must hit the canonical basis exactly"
    assert shared


def test_criterion_03_average_agreement():
    """Classical and operator averages of both reference variables."""
    worst = 0.0
    for q in Q_GRID:
        doc = cp.generate_kq(q)
        space, pair = doc.space, doc.pair
        ctx = doc.context("C234")
        closed = q / (q - 1)
        psi = cp.build_amplitude(space, pair, ctx)
        basis = cp.a_basis_for_context(space, pair, space.full_event())
        b_avg = cp.quantum_average(cp.operator_for_b(pair), psi)
        a_avg = cp.quantum_average(
            cp.operator_for_variable(pair.a_values, basis), psi
        )
        w = space.weights
        idx = list(ctx.indices())
        pc = sum(w[i] for i in idx)
        e_b = sum(w[i] * pair.b.values[i] for i in idx) / pc
        e_a = sum(w[i] * pair.a.values[i] for i in idx) / pc
        for lhs, rhs in (
            (e_b, b_avg), (e_a, a_avg),
            (e_b, closed), (e_a, closed),
            (b_avg, closed), (a_avg, closed),
        ):
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-10
    _line(3, ok, f"reference averages, worst residual {worst:.2e}")
    assert ok


def test_criterion_04_distribution_mismatch():
    """Same averages, different distributions for the sum observable."""
    q = 0.125
    doc = cp.generate_kq(q)
    report = cp.distribution_mismatch(
        doc.space, doc.pair, doc.context("C234"), 1.0
    )
    s = math.sqrt(2 * q)
    worst = max(
        abs(report.classical_dist[-2.0] - 1 / 7),
        abs(report.classical_dist[0.0] - 6 / 7),
        abs(report.classical_dist[2.0] - 0.0),
        abs(report.quantum_dist[closest_key(report.quantum_dist, 2 * s)]
            - (1 - s) * (2 + s) / (4 * (1 - q))),
        abs(report.quantum_dist[closest_key(report.quantum_dist, -2 * s)]
            - (1 + s) * (2 - s) / (4 * (1 - q))),
        abs(report.quantum_dist[closest_key(report.quantum_dist, 2 * s)] - 5 / 14),
        abs(report.quantum_dist[closest_key(report.quantum_dist, -2 * s)] - 9 / 14),
    )
    avg_worst = max(
        abs(report.classical_average + 2 / 7),
        abs(report.quantum_average + 2 / 7),
    )
    tv = total_variation(report.classical_dist, report.quantum_dist)
    ok = worst <= 1e-10 and avg_worst <= 1e-10 and tv > 0.2
    _line(
        4,
        ok,
        f"mismatch dists (worst {worst:.2e}), equal averages "
        f"(worst {avg_worst:.2e}), TV {tv:.3f}",
    )
    assert ok


def test_criterion_05_reconstruction_identity_randomised():
    """Interference reconstruction equals the direct value on 1000 models."""
    worst_rec = 0.0
    worst_sum = 0.0
    contexts_checked = 0
    for seed in range(1000):
        doc = cp.generate_random_model(
            seed=seed, n_points=4 + seed % 3, n_contexts=0
        )
        space, pair = doc.space, doc.pair
        for ctx in all_nondegenerate_contexts(space, pair):
            coeffs = itf.interference_coefficients(space, pair, ctx)
            worst_sum = max(worst_sum, abs(math.fsum(coeffs.deltas)))
            if coeffs.context_class is itf.ContextClass.MIXED:
                continue
            phases = itf.assign_phases(coeffs)
            rec = itf.reconstruct_probability(coeffs, phases)
            for j, x in enumerate(pair.b_values):
                worst_rec = max(
                    worst_rec,
                    abs(rec[x] - brute_conditional(space, pair.b_partition[j], ctx)),
                )
            contexts_checked += 1
    ok = worst_rec <= 1e-10 and worst_sum <= 1e-10 and contexts_checked > 5000
    _line(
        5,
        ok,
        f"{contexts_checked} contexts reconstructed (worst {worst_rec:.2e}), "
        f"perturbation sums (worst {worst_sum:.2e})",
    )
    assert ok


def test_criterion_06_two_sided_rule_and_offset():
    """The a-side probability rule under double stochasticity, and the
    impossibility of a shared offset without it."""
    worst_born = 0.0
    ds_models = 0
    seed = 0
    while ds_models < 200:
        doc = cp.generate_random_model(
            seed=seed, n_points=4 + seed % 3, n_contexts=0,
            double_stochastic=True,
        )
        seed += 1
        space, pair = doc.space, doc.pair
        basis = cp.a_basis_for_context(space, pair, space.full_event())
        assert basis.unitary
        for ctx in all_nondegenerate_contexts(space, pair):
            try:
                psi = cp.build_amplitude(space, pair, ctx)
            except cp.ContextualProbabilityError:
                continue
            for i, ay in enumerate(pair.a_partition):
                worst_born = max(
                    worst_born,
                    abs(
                        cp.born_probability(psi, basis.vectors[i])
                        - brute_conditional(space, ay, ctx)
                    ),
                )
        ds_models += 1

    non_ds_models = 0
    seed = 0
    attempts = 0
    while non_ds_models < 200 and attempts < 5000:
        doc = cp.generate_random_model(
            seed=10_000 + seed, n_points=4 + seed % 3, n_contexts=0,
            double_stochastic=False,
        )
        seed += 1
        attempts += 1
        space, pair = doc.space, doc.pair
        t = cp.transition_matrix(space, pair)
        if abs(t.cosine_ratio - 1.0) < 1e-3:
            continue
        trig = {}
        mags = []
        for i, ctx in enumerate(all_nondegenerate_contexts(space, pair)):
            coeffs = itf.interference_coefficients(space, pair, ctx)
            if coeffs.context_class in (
                itf.ContextClass.TRIGONOMETRIC,
                itf.ContextClass.BOUNDARY,
            ):
                trig[f"c{i}"] = ctx
                mags.append(abs(coeffs.lambdas[0]))
        spread = max(mags) - min(mags) if mags else 0.0
        if len(trig) < 2 or spread < 1e-6:
            continue
        report = itf.verify_no_global_alpha(space, pair, trig)
        assert report.offset_spread > 2 * OFFSET_TOL
        assert not report.found, "no shared offset may exist off the " \
            "double stochastic case"
        non_ds_models += 1

    ok = worst_born <= 1e-10 and ds_models == 200 and non_ds_models == 200
    _line(
        6,
        ok,
        f"a-side rule on {ds_models} models (worst {worst_born:.2e}); "
        f"offset nonexistence on {non_ds_models} models",
    )
    assert ok


def test_criterion_07_noncommutativity():
    """Commutator of the reference operators against its closed form.

    The closed form (a1 - a2)(b2 - b1) q1 q2 appears in the computed
    commutator of the b- and a-operators as the (2, 1) entry (equivalently,
    with opposite sign, as the (1, 2) entry).
    """
    worst = 0.0
    smallest = math.inf
    for q in list(Q_GRID) + [0.01, 0.49, 1 / 3]:
        doc = cp.generate_kq(q)
        space, pair = doc.space, doc.pair
        basis = cp.a_basis_for_context(space, pair, space.full_event())
        a_op = cp.operator_for_variable(pair.a_values, basis)
        comm = np.asarray(cp.commutator(cp.operator_for_b(pair), a_op))
        q1q2 = math.sqrt(2 * q) * math.sqrt(1 - 2 * q)
        closed = (
            (pair.a_values[0] - pair.a_values[1])
            * (pair.b_values[1] - pair.b_values[0])
            * q1q2
        )
        worst = max(
            worst,
            abs(comm[1, 0] - closed),
            abs(comm[0, 1] + closed),
            abs(comm[0, 0]),
            abs(comm[1, 1]),
        )
        smallest = min(smallest, abs(closed))
    ok = worst <= 1e-12 and smallest > 0.0
    _line(
        7,
        ok,
        f"commutator closed form (worst {worst:.2e}), min magnitude "
        f"{smallest:.3f}",
    )
    assert ok


def test_criterion_08_hyperbolic_suite():
    """Hyperbolic representation on random models plus algebra laws."""
    worst_born = 0.0
    worst_cosh = 0.0
    eps_ok = True
    hyp_contexts = 0
    for seed in range(120):
        doc = cp.generate_random_model(
            seed=seed, n_points=4 + seed % 3, n_contexts=0,
            double_stochastic=bool(seed % 2),
        )
        space, pair = doc.space, doc.pair
        ds = cp.transition_matrix(space, pair).double_stochastic
        for ctx in all_nondegenerate_contexts(space, pair):
            coeffs = itf.interference_coefficients(space, pair, ctx)
            if coeffs.context_class not in (
                itf.ContextClass.HYPERBOLIC,
                itf.ContextClass.BOUNDARY,
            ):
                continue
            psi = cp.build_hyperbolic_amplitude(space, pair, ctx)
            hyp_contexts += 1
            eps_ok &= sum(psi.epsilons) == 0
            for j, x in enumerate(pair.b_values):
                worst_born = max(
                    worst_born,
                    abs(
                        psi.born(x)
                        - brute_conditional(space, pair.b_partition[j], ctx)
                    ),
                )
            if ds:
                worst_cosh = max(
                    worst_cosh,
                    abs(abs(coeffs.lambdas[0]) - abs(coeffs.lambdas[1])),
                )

    rng = np.random.default_rng(2024)
    worst_alg = 0.0
    cone_ok = True
    for _ in range(10_000):
        x1, y1, x2, y2, x3, y3 = rng.uniform(-10.0, 10.0, size=6)
        z1, z2, z3 = (
            HyperbolicNumber(x1, y1),
            HyperbolicNumber(x2, y2),
            HyperbolicNumber(x3, y3),
        )
        assoc_l = (z1 * z2) * z3
        assoc_r = z1 * (z2 * z3)
        dist_l = z1 * (z2 + z3)
        dist_r = z1 * z2 + z1 * z3
        comm_l, comm_r = z1 * z2, z2 * z1
        scale = 1e-12 * max(
            1.0, abs(assoc_l.x), abs(assoc_l.y), abs(dist_l.x), abs(dist_l.y)
        )
        worst_alg = max(
            worst_alg,
            max(
                abs(assoc_l.x - assoc_r.x),
                abs(assoc_l.y - assoc_r.y),
                abs(dist_l.x - dist_r.x),
                abs(dist_l.y - dist_r.y),
                abs(comm_l.x - comm_r.x),
                abs(comm_l.y - comm_r.y),
            )
            / scale
            * 1e-12,
        )
        norm_l = (z1 * z2).norm_sq()
        norm_r = z1.norm_sq() * z2.norm_sq()
        worst_alg = max(
            worst_alg, abs(norm_l - norm_r) / max(1.0, abs(norm_l)) )
        if z1.in_positive_cone() and z2.in_positive_cone():
            cone_ok &= (z1 * z2).in_positive_cone(
                1e-10 * max(1.0, (z1 * z2).x ** 2)
            )
    ok = (
        worst_born <= 1e-10
        and worst_cosh <= 1e-10
        and eps_ok
        and hyp_contexts > 200
        and worst_alg <= 1e-9
        and cone_ok
    )
    _line(
        8,
        ok,
        f"{hyp_contexts} hyperbolic contexts (worst {worst_born:.2e}), "
        f"rapidity equality (worst {worst_cosh:.2e}), algebra laws on "
        f"10000 pairs (worst rel {worst_alg:.2e})",
    )
    assert ok


def test_criterion_09_multivalued_recursion():
    """Three-valued recursion reproduces the probabilities for every split
    order, and the split identities hold exactly."""
    rng = np.random.default_rng(99)
    worst_born = 0.0
    accepted = 0
    seed = 0
    while accepted < 200 and seed < 2000:
        jitter = rng.uniform(-0.35, 0.35, size=9)
        w = (1.0 + jitter) / (9.0 + jitter.sum())
        space = cp.FiniteKolmogorovSpace(
            tuple(f"w{i}" for i in range(1, 10)),
            tuple(float(v) for v in w),
        )
        a = cp.RandomVariable((1.0,) * 3 + (2.0,) * 3 + (3.0,) * 3)
        b = cp.RandomVariable((1.0, 2.0, 3.0) * 3)
        pair = cp.ReferencePair.from_variables(space, a, b)
        drop = int(rng.integers(9))
        ctx = cp.Event(((1 << 9) - 1) ^ (1 << drop), 9)
        seed += 1
        try:
            results = [
                build_amplitude_nvalued(space, pair, ctx, order=order)[0]
                for order in itertools.permutations(range(3))
            ]
        except cp.SplitOutOfRange:
            continue
        accepted += 1
        for psi in results:
            for j, x in enumerate(pair.b_values):
                worst_born = max(
                    worst_born,
                    abs(
                        psi.born(x)
                        - brute_conditional(space, pair.b_partition[j], ctx)
                    ),
                )

    worst_identity = 0.0
    for model_seed in range(40):
        doc = cp.generate_random_model(
            seed=model_seed, n_points=9, value_arities=(3, 3), n_contexts=4
        )
        space, pair = doc.space, doc.pair
        for ctx in doc.contexts.values():
            for bx in pair.b_partition:
                for i1, i2 in itertools.combinations(range(3), 2):
                    d1, d2 = pair.a_partition[i1], pair.a_partition[i2]
                    try:
                        split = cp.contextual_total_probability_split(
                            space, bx, d1, d2, ctx
                        )
                        mu = cp.mu_coefficient(space, bx, d1, d2, ctx)
                    except cp.ContextualProbabilityError:
                        continue
                    head = brute_conditional(space, bx, d1) * brute_conditional(
                        space, d1, ctx
                    )
                    tail = brute_conditional(space, bx & d2, ctx)
                    worst_identity = max(
                        worst_identity,
                        abs(split.lhs - split.rhs),
                        abs(split.lhs - split.additivity_rhs),
                        abs(split.lhs - split.conditioned_rhs),
                        abs(
                            head + tail + 2 * mu * math.sqrt(head * tail)
                            - split.lhs
                        ),
                    )
    ok = accepted == 200 and worst_born <= 1e-9 and worst_identity <= 1e-12
    _line(
        9,
        ok,
        f"{accepted} three-valued models x 6 orders (worst {worst_born:.2e}); "
        f"split identities (worst {worst_identity:.2e})",
    )
    assert ok


def test_criterion_10_dispersion_free_contexts():
    """Atoms are dispersion free yet admit no state vector."""
    doc = cp.generate_kq(0.125)
    space, pair = doc.space, doc.pair
    rng = np.random.default_rng(17)
    ok = True
    for i, point in enumerate(space.points):
        atom = space.event((point,))
        for var in (
            pair.a,
            pair.b,
            cp.RandomVariable(tuple(rng.normal(size=4))),
        ):
            # the conditional variance of var given the atom
            idx, pc = list(atom.indices()), space.probability(atom)
            mean = math.fsum(space.weights[k] * var.values[k] for k in idx) / pc
            spread = (space.weights[k] * (var.values[k] - mean) ** 2 for k in idx)
            ok &= math.fsum(spread) / pc == 0.0
        ok &= all(atom.mask != ay.mask for ay in pair.a_partition)
        try:
            cp.build_amplitude(space, pair, atom)
            ok = False
        except cp.DegenerateContext:
            pass
    _line(10, ok, "atoms dispersion free and rejected by the representation")
    assert ok


def test_criterion_11_cli_contract(tmp_path):
    """Process-level contract: exit 0 on bundled models, exit 2 with a
    diagnostic on a corrupted one."""
    ok = True
    for q in Q_GRID:
        path = tmp_path / f"kq_{q}.json"
        save_model(cp.generate_kq(q), path)
        proc = subprocess.run(
            [sys.executable, "-m", "contextprob", "verify", str(path),
             "--suite", "all"],
            capture_output=True,
            text=True,
        )
        ok &= proc.returncode == 0

    doc = cp.generate_kq(0.125)
    corrupted = {
        "points": [
            {"id": p, "p": w * 0.9}
            for p, w in zip(doc.space.points, doc.space.weights)
        ],
        "variables": {
            "a": dict(zip(doc.space.points, doc.pair.a.values)),
            "b": dict(zip(doc.space.points, doc.pair.b.values)),
        },
        "contexts": {},
    }
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(corrupted))
    proc = subprocess.run(
        [sys.executable, "-m", "contextprob", "verify", str(bad_path)],
        capture_output=True,
        text=True,
    )
    ok &= proc.returncode == 2
    try:
        diag = json.loads(proc.stderr)
        ok &= diag["error"] == "model-validation"
    except (json.JSONDecodeError, KeyError):
        ok = False
    _line(11, ok, "verify exits 0 on bundled models, 2 with diagnostics")
    assert ok
