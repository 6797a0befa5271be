"""Independent oracle for the benchmark: raw weight sums, nothing shared.

The oracle reads a model document with ``json`` and recomputes every
quantity the benchmark checks from sums of point weights: the joint table
J_C[y][x] = P(a=y, b=x, C), and from it P(b=x|C), delta, lambda, the class
implied by |lambda| and the coefficients of the dichotomous splitting
recursion.  It imports nothing from ``contextprob``.

``check_analyze``, ``check_represent`` and ``check_verify`` compare one
command's JSON output with the oracle and return a list of disagreements;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

TOL = 1e-9            # absolute tolerance on probabilities and residuals
CLASS_MARGIN = 1e-9   # classes within this of |lambda| = 1 are not checked
DS_TOL = 1e-10        # column sums of a double stochastic P(b|a)

TRIG, HYP, MIXED, AMBIGUOUS = "trigonometric", "hyperbolic", "mixed", None


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def loads_strict(text: str):
    """``json.loads`` that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _first_occurrence(values):
    seen = []
    for v in values:
        if v not in seen:
            seen.append(v)
    return seen


def _close(u: float, v: float, tol: float = TOL) -> bool:
    return abs(u - v) <= tol * max(1.0, abs(u), abs(v))


class Model:
    """A model document reduced to weights and the two value columns."""

    def __init__(self, doc: dict):
        ids = [p["id"] for p in doc["points"]]
        raw = [float(p["p"]) for p in doc["points"]]
        total = math.fsum(raw)
        self.weights = [w / total for w in raw]
        a_name, b_name = doc.get("reference_pair") or ("a", "b")
        self.a = [float(doc["variables"][a_name][i]) for i in ids]
        self.b = [float(doc["variables"][b_name][i]) for i in ids]
        # the model format orders value sets by first occurrence over points
        self.a_values = _first_occurrence(self.a)
        self.b_values = _first_occurrence(self.b)
        position = {pid: k for k, pid in enumerate(ids)}
        self.contexts = {
            name: sorted(position[m] for m in members)
            for name, members in doc.get("contexts", {}).items()
        }
        self.omega = self.table(range(len(ids)))
        # P(b=x|a=y) from the full space
        self.trans = [
            [j / math.fsum(row) for j in row] for row in self.omega
        ]

    @property
    def dichotomous(self) -> bool:
        return len(self.a_values) == 2 and len(self.b_values) == 2

    def table(self, members) -> list[list[float]]:
        """J[y][x] = P(a=y, b=x, members), each cell one ``fsum``."""
        ai = {v: k for k, v in enumerate(self.a_values)}
        bi = {v: k for k, v in enumerate(self.b_values)}
        parts = [[[] for _ in self.b_values] for _ in self.a_values]
        for i in members:
            parts[ai[self.a[i]]][bi[self.b[i]]].append(self.weights[i])
        return [[math.fsum(cell) for cell in row] for row in parts]

    def incompatible(self) -> bool:
        return all(cell > 0.0 for row in self.omega for cell in row)

    def double_stochastic(self) -> bool:
        if len(self.a_values) != len(self.b_values):
            return False
        return all(
            abs(math.fsum(row[x] for row in self.trans) - 1.0) <= DS_TOL
            for x in range(len(self.b_values))
        )

    def context_facts(self, members) -> dict:
        """Everything the checks need about one context."""
        j = self.table(members)
        pc = math.fsum(math.fsum(row) for row in j)
        pa = [math.fsum(row) / pc for row in j]
        pb = [math.fsum(row[x] for row in j) / pc for x in range(len(self.b_values))]
        facts = {"pb": pb, "pa": pa}
        if self.dichotomous:
            facts.update(self._coefficients(pa, pb))
        else:
            facts.update(self._split(j, pc))
        return facts

    def _coefficients(self, pa, pb) -> dict:
        if min(pa) == 0.0:
            return {"cls": "degenerate", "deltas": None, "lambdas": None}
        t = self.trans
        deltas, lambdas = [], []
        for x in range(2):
            classical = pa[0] * t[0][x] + pa[1] * t[1][x]
            d = pb[x] - classical
            deltas.append(d)
            lambdas.append(d / (2.0 * math.sqrt(pa[0] * t[0][x] * pa[1] * t[1][x])))
        return {"cls": classify(lambdas), "deltas": deltas, "lambdas": lambdas}

    def _split(self, j, pc) -> dict:
        """Coefficients of the recursion in declared a-order: at the last
        level the contextual split of the two last cells, at every level
        above it the half-eliminated split of the head cell against the
        union of the cells after it."""
        n = len(self.a_values)
        pa_c = [math.fsum(row) / pc for row in j]
        if min(pa_c) == 0.0:
            return {"split": "null", "coefficients": None, "tails": None}
        t = self.trans
        coefficients, tails = {}, {}
        for x, xv in enumerate(self.b_values):
            tail = [math.fsum(j[i][x] for i in range(k, n)) / pc for k in range(n)]
            tails[xv] = tail
            if any(v == 0.0 for v in tail[1:n - 1]):
                return {"split": "null", "coefficients": None, "tails": None}
            coeff = {}
            p1 = t[n - 2][x] * pa_c[n - 2]
            p2 = t[n - 1][x] * pa_c[n - 1]
            coeff[n - 2] = (tail[n - 2] - p1 - p2) / (2.0 * math.sqrt(p1 * p2))
            for k in range(n - 3, -1, -1):
                head = t[k][x] * pa_c[k]
                coeff[k] = (tail[k] - head - tail[k + 1]) / (
                    2.0 * math.sqrt(head * tail[k + 1])
                )
            coefficients[xv] = coeff
        mags = [abs(c) for cx in coefficients.values() for c in cx.values()]
        if max(mags) > 1.0 + CLASS_MARGIN:
            status = "out"
        elif max(mags) < 1.0 - CLASS_MARGIN:
            status = "in"
        else:
            status = "ambiguous"
        return {"split": status, "coefficients": coefficients, "tails": tails}


def classify(lambdas) -> str | None:
    """Class implied by |lambda|; None when some |lambda| is within
    ``CLASS_MARGIN`` of one, where rounding may decide either way."""
    mags = [abs(v) for v in lambdas]
    if any(abs(m - 1.0) <= CLASS_MARGIN for m in mags):
        return AMBIGUOUS
    if all(m < 1.0 for m in mags):
        return TRIG
    if all(m > 1.0 for m in mags):
        return HYP
    return MIXED


class Expectations:
    """Oracle facts for every declared context of one model, computed once
    and shared by the checks of all rounds."""

    def __init__(self, doc: dict):
        self.model = Model(doc)
        self.facts = {
            name: self.model.context_facts(members)
            for name, members in self.model.contexts.items()
        }
        self.ds = self.model.double_stochastic()

    def class_counts(self) -> dict:
        counts: dict = {}
        for f in self.facts.values():
            key = f.get("cls", f.get("split"))
            counts[str(key)] = counts.get(str(key), 0) + 1
        return counts

    def expected_checks(self) -> dict:
        """Status every verify check must report on this model, by id."""
        m, ds = self.model, self.ds
        if not m.dichotomous:
            out = {cid: "pass" for cid in CORE_IDS[:6]}
            out.update({cid: "skip" for cid in CORE_IDS[6:]})
            out["complex.suite"] = "skip"
            out.update({cid: "pass" for cid in HYPERBOLIC_IDS[:4]})
            out["hyperbolic.born_b"] = "skip"
            out.update({cid: "pass" for cid in MULTIVALUED_IDS[:4]})
            built = any(f["split"] == "in" for f in self.facts.values())
            out["multivalued.recursion_born"] = "pass" if built else "skip"
            return out
        nondeg = [f for f in self.facts.values() if f["cls"] != "degenerate"]
        trig = [f for f in nondeg if f["cls"] == TRIG]
        hyp = [f for f in nondeg if f["cls"] == HYP]

        def when(cond):
            return "pass" if cond else "skip"

        out = {cid: "pass" for cid in CORE_IDS[:6]}
        out["core.delta_sum_zero"] = when(nondeg)
        out["core.lambda_weighted_sum_zero"] = when(nondeg)
        out["core.reconstruction_identity"] = when(trig or hyp)
        out["core.phase_cosine_relation"] = when(trig)
        out["core.symmetry_equivalence"] = "pass"
        out["complex.born_b"] = when(trig)
        out["complex.normalization"] = when(trig)
        out["complex.conjugation_symmetry"] = when(trig)
        out["complex.born_a"] = when(ds and trig)
        out["complex.basis_unitarity"] = "pass"
        for cid in ("operator_spectrum", "noncommutativity",
                    "average_preservation", "basic_context_classes"):
            out[f"complex.{cid}"] = when(ds)
        distinct = len({round(abs(f["lambdas"][0]), 7) for f in trig}) > 1
        out["complex.global_phase_offset"] = when(len(trig) >= 2 and (ds or distinct))
        out.update({cid: "pass" for cid in HYPERBOLIC_IDS[:4]})
        out["hyperbolic.born_b"] = when(hyp)
        out["hyperbolic.epsilon_sum_zero"] = when(hyp)
        out["hyperbolic.rapidity_equality"] = when(hyp and ds)
        out["hyperbolic.basis_unitarity"] = when(hyp and ds)
        out["hyperbolic.transform_pair_sum"] = when(hyp and ds)
        out["hyperbolic.basic_contexts_hyperbolic"] = when(ds)
        out.update({cid: "pass" for cid in MULTIVALUED_IDS})
        return out


CORE_IDS = (
    "core.weights_normalized", "core.probability_range",
    "core.bayes_consistency", "core.total_probability_identity",
    "core.partition_closure", "core.partition_structure",
    "core.delta_sum_zero", "core.lambda_weighted_sum_zero",
    "core.reconstruction_identity", "core.phase_cosine_relation",
    "core.symmetry_equivalence",
)
HYPERBOLIC_IDS = (
    "hyperbolic.ring_laws", "hyperbolic.norm_multiplicative",
    "hyperbolic.positive_cone_closed", "hyperbolic.polar_roundtrip",
    "hyperbolic.born_b", "hyperbolic.epsilon_sum_zero",
    "hyperbolic.rapidity_equality", "hyperbolic.basis_unitarity",
    "hyperbolic.transform_pair_sum", "hyperbolic.basic_contexts_hyperbolic",
)
MULTIVALUED_IDS = (
    "multivalued.union_additivity", "multivalued.conditioned_split",
    "multivalued.contextual_split", "multivalued.half_eliminated_split",
    "multivalued.recursion_born",
)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class _Errors(list):
    """Collects disagreements, keeping only the first few messages."""

    LIMIT = 5

    def __init__(self):
        super().__init__()
        self.count = 0

    def add(self, message: str) -> None:
        self.count += 1
        if len(self) < self.LIMIT:
            self.append(message)


def _keyed(mapping: dict, values) -> list:
    """Entries of an output dict keyed by str(value), in value order."""
    by_value = {float(k): v for k, v in mapping.items()}
    return [by_value.get(v) for v in values]


def _check_chain(err, name, chain, facts, b_values):
    if chain["order"] != list(range(len(facts["pa"]))):
        err.add(f"{name}: split order {chain['order']}")
    for xv, records in zip(b_values, _keyed(chain["levels"], b_values)):
        if records is None:
            err.add(f"{name}: no split levels for b={xv}")
            continue
        for rec in records:
            k = rec["level"]
            want = facts["coefficients"][xv][k]
            if not _close(rec["coefficient"], want):
                err.add(f"{name}: coefficient b={xv} level {k} "
                        f"{rec['coefficient']!r} != {want!r}")
            tail = facts["tails"][xv][k]
            if not _close(rec["tail_probability"], tail):
                err.add(f"{name}: tail probability b={xv} level {k}")
            z = rec["partial"]
            if not _close(z["re"] ** 2 + z["im"] ** 2, tail):
                err.add(f"{name}: |partial|^2 b={xv} level {k} != tail")


def _check_split_entry(err, name, entry, facts, b_values, representable):
    """One context of a ternary model, in analyze or represent."""
    status = facts["split"]
    if not representable:
        if status == "in":
            err.add(f"{name}: reported unrepresentable, all oracle "
                    "coefficients lie inside [-1, 1]")
        return
    if status in ("null", "out"):
        err.add(f"{name}: reported representable, oracle split is {status}")
        return
    _check_chain(err, name, entry["split_chain"], facts, b_values)


def _born(err, name, values, pb, what):
    for k, (got, want) in enumerate(zip(values, pb)):
        if not _close(got, want):
            err.add(f"{name}: {what}[{k}] = {got!r}, P(b|C) = {want!r}")


def check_analyze(exp: Expectations, out: dict) -> _Errors:
    err = _Errors()
    m = exp.model
    contexts = out.get("contexts", {})
    if set(contexts) != set(exp.facts):
        err.add(f"analyze reports {len(contexts)} contexts, model declares "
                f"{len(exp.facts)}")
    for name, facts in exp.facts.items():
        entry = contexts.get(name)
        if entry is None:
            continue
        if not m.dichotomous:
            rep = entry["class"] == "split-representable"
            if not rep and entry["class"] != "unrepresentable":
                err.add(f"{name}: class {entry['class']!r}")
                continue
            _check_split_entry(err, name, entry, facts, m.b_values, rep)
            continue
        if facts["cls"] == "degenerate":
            if entry["class"] != "degenerate":
                err.add(f"{name}: a-degenerate, reported {entry['class']!r}")
            continue
        if facts["cls"] is not AMBIGUOUS and entry["class"] != facts["cls"]:
            err.add(f"{name}: class {entry['class']!r}, oracle {facts['cls']!r}")
        outcomes = _keyed(entry["outcomes"], m.b_values)
        for x, o in enumerate(outcomes):
            if o is None:
                err.add(f"{name}: outcome {m.b_values[x]} missing")
                continue
            d, lam = facts["deltas"][x], facts["lambdas"][x]
            if not _close(o["delta"], d):
                err.add(f"{name}: delta[{x}] {o['delta']!r} != {d!r}")
            if not _close(o["lambda"], lam):
                err.add(f"{name}: lambda[{x}] {o['lambda']!r} != {lam!r}")
            # the phase must reproduce the coefficient it was drawn from
            if entry["class"] == TRIG or entry["class"] == "boundary":
                got = math.cos(o["theta"])
                want = max(-1.0, min(1.0, lam))
            elif entry["class"] == HYP:
                got = o["epsilon"] * math.cosh(o["theta"])
                want = lam
            else:
                if o["theta"] is not None:
                    err.add(f"{name}: mixed context carries a phase")
                continue
            if not _close(got, want, 1e-8):
                err.add(f"{name}: phase of outcome {x} gives {got!r}, "
                        f"lambda {want!r}")
    return err


def check_represent(exp: Expectations, out: dict) -> _Errors:
    err = _Errors()
    m = exp.model
    complex_out = out.get("complex", {})
    if set(complex_out) != set(exp.facts):
        err.add("represent does not cover every declared context")
    b_op = out["operators"]["b"]
    for r, row in enumerate(b_op):
        for c, v in enumerate(row):
            want = m.b_values[r] if r == c else 0.0
            if not (_close(v["re"], want) and abs(v["im"]) <= TOL):
                err.add(f"b operator entry ({r}, {c})")
    if not m.dichotomous:
        for name, facts in exp.facts.items():
            entry = complex_out.get(name)
            if entry is None:
                continue
            rep = "skipped" not in entry
            _check_split_entry(err, name, entry, facts, m.b_values, rep)
            if rep:
                amp = entry["amplitude"]
                born = [u * u + v * v for u, v in zip(amp["re"], amp["im"])]
                _born(err, name, born, facts["pb"], "|psi|^2")
        return err

    if out.get("basis_unitary") != exp.ds:
        err.add(f"basis_unitary {out.get('basis_unitary')} but double "
                f"stochastic {exp.ds}")
    if exp.ds:
        a_op = out["operators"]["a"]
        trace = a_op[0][0]["re"] + a_op[1][1]["re"]
        det = (a_op[0][0]["re"] * a_op[1][1]["re"]
               - a_op[0][1]["re"] ** 2 - a_op[0][1]["im"] ** 2)
        if not (_close(trace, sum(m.a_values)) and _close(det, math.prod(m.a_values))):
            err.add("a operator eigenvalues are not the a-values")
    hyp_out = out.get("hyperbolic", {})
    for name, facts in exp.facts.items():
        cls = facts["cls"]
        entry = complex_out.get(name)
        if entry is not None:
            if "skipped" in entry:
                if cls == TRIG:
                    err.add(f"{name}: trigonometric context skipped")
            elif cls not in (TRIG, AMBIGUOUS):
                err.add(f"{name}: {cls} context given a complex state")
            else:
                amp = entry["amplitude"]
                born = [u * u + v * v for u, v in zip(amp["re"], amp["im"])]
                _born(err, name, born, facts["pb"], "|psi|^2")
                if exp.ds and entry.get("born_a_residual", math.inf) > TOL:
                    err.add(f"{name}: a-side Born residual missing or large")
        entry = hyp_out.get(name)
        if entry is None:
            err.add(f"{name}: no hyperbolic entry")
        elif "skipped" in entry:
            if cls == HYP:
                err.add(f"{name}: hyperbolic context skipped")
        elif cls not in (HYP, AMBIGUOUS):
            err.add(f"{name}: {cls} context given a hyperbolic state")
        else:
            born = [z["x"] ** 2 - z["y"] ** 2 for z in entry["components"]]
            _born(err, name, born, facts["pb"], "x^2 - y^2")
            signs = [1 if d > 0 else -1 for d in facts["deltas"]]
            if entry["epsilons"] != signs:
                err.add(f"{name}: epsilons {entry['epsilons']} != {signs}")
    return err


def check_verify(exp: Expectations, out: dict) -> _Errors:
    err = _Errors()
    if out.get("passed") is not True:
        err.add("verify did not pass")
    statuses = {c["id"]: c["status"] for c in out.get("checks", [])}
    for cid, status in statuses.items():
        if status == "fail":
            err.add(f"check {cid} failed")
    expected = exp.expected_checks()
    if set(statuses) != set(expected):
        err.add(f"check ids differ: extra {sorted(set(statuses) - set(expected))}, "
                f"missing {sorted(set(expected) - set(statuses))}")
    for cid, want in expected.items():
        if cid in statuses and statuses[cid] != want:
            err.add(f"check {cid}: {statuses[cid]}, expected {want}")
    return err


CHECKS = {"analyze": check_analyze, "represent": check_represent, "verify": check_verify}


def self_check() -> None:
    """Check the oracle itself against the closed forms of the kq family:
    P(b1|a1) = 2q and the four three-point lambdas.  Raises on mismatch."""
    from gen import kq

    for q in (0.05, 0.125, 0.25, 0.4):
        m = Model(kq(q))
        forms = {
            "C123": -math.sqrt(1 - 2 * q) / 2,
            "C124": math.sqrt(q / 2),
            "C134": math.sqrt(1 - 2 * q) / 2,
            "C234": -math.sqrt(q / 2),
        }
        if not _close(m.trans[0][0], 2 * q, 1e-12):
            raise AssertionError(f"oracle P(b1|a1) at q={q}")
        for name, closed in forms.items():
            lam = m.context_facts(m.contexts[name])["lambdas"][0]
            if not _close(lam, closed, 1e-12):
                raise AssertionError(
                    f"oracle lambda(b1, {name}) = {lam!r} at q={q}, "
                    f"closed form {closed!r}"
                )
