"""Command-line interface.

Subcommands: ``analyze`` (interference coefficients and context classes),
``represent`` (state vectors and operator matrices), ``verify`` (named check
suites with exit code 1 on failure), ``example kq`` (the bundled four-point
model reproduced against its closed forms), and ``gen random`` (seeded model
generation).  Every report is JSON, on stdout or in the ``--output`` file,
written entry by entry only after it is fully computed, so a refused input
writes nothing and no string ever holds the whole report.  Exit codes: 0
success, 1 a check failed (verification or reproduction failure, or an
:class:`InvariantViolation`), 2 a usage error (an unknown flag, such as
``--tolerance`` on a command that gates on no tolerance, a missing argument
or a value of the wrong type) or a load/validation failure (a
:class:`ModelValidationError`, an invalid generator argument, a
``--tolerance`` that is negative or not finite, the magnitude of the model's
values, or an ``OSError`` from reading the model or writing a report, such
as a missing model file or an output directory that does not exist), 3 input
the calculus cannot represent (any other library error, such as a degenerate
anchor context or a compatible reference pair).  An error that ends a
command writes a one-line JSON diagnostic to stderr, tagged ``"usage"`` for
a usage error, ``"model-validation"`` for a validation failure and with the
exception's class name otherwise (for a missing model file,
``"FileNotFoundError"``); :func:`main` is the one place that maps errors to
exit codes.  ``--help`` is not an error: it prints the usage text to stdout
and exits 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _encode_str

from . import complex_repr as cr
from . import hyperbolic_repr as hr
from . import interference as itf
from . import multivalued as mv
from .errors import (
    ContextualProbabilityError,
    InvariantViolation,
    ModelValidationError,
)
from .models import (
    ModelDocument,
    dumps_model,
    generate_kq,
    generate_random_model,
    load_model,
    save_model,
)
from .space import pair_tables, transition_matrix
from .tolerances import KQ_EXAMPLE_TOL
from .verify import SUITES, run_suite

_LITERALS = {None: "null", True: "true", False: "false"}


def _emit(payload, args) -> None:
    """Write ``payload``'s report, with its trailing newline, to
    ``--output`` or stdout as it is encoded."""
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            _write_json(fh.write, payload)
            fh.write("\n")
    else:
        _write_json(sys.stdout.write, payload)
        sys.stdout.write("\n")


def _write_json(write, o, head: str = "", pad: str = "\n", depth: int = 2) -> None:
    """Call ``write`` on ``head + _json_text(o, pad)`` in pieces: a non-empty
    dict or list within ``depth`` levels of ``o`` goes out one item per call,
    the item encoded by :func:`_json_text`, so no string holds the whole
    text.  ``head`` goes out with the first piece."""
    if depth and isinstance(o, (dict, list, tuple)) and o:
        inner = pad + "  "
        if isinstance(o, dict):
            brackets = "{}"
            items = ((f"{_encode_str(key)}: ", o[key]) for key in sorted(o))
        else:
            brackets = "[]"
            items = (("", v) for v in o)
        sep = head + brackets[0] + inner
        for key, v in items:
            _write_json(write, v, sep + key, inner, depth - 1)
            sep = "," + inner
        write(pad + brackets[1])
    else:
        write(head + _json_text(o, pad))


def _json_text(o, pad: str = "\n") -> str:
    """``o`` as ``json.dump(o, fp, indent=2, sort_keys=True, default=str,
    allow_nan=False)`` writes it, for ``str`` dict keys.  json's indented
    encoder is pure Python; this encodes strings through its C function."""
    if isinstance(o, str):
        return _encode_str(o)
    if o is None or o is True or o is False:
        return _LITERALS[o]
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    if isinstance(o, int):
        return int.__repr__(o)
    # containers encode a finite float, a str and None inline, not by a call
    # each; subclasses and every other value go through the call.  No name
    # keeps an item's text, and the items go before their joined body is
    # copied into the result, so at most two copies of a text are alive.
    if isinstance(o, dict):
        inner = pad + "  "
        parts = []
        for key in sorted(o):
            v, key = o[key], _encode_str(key)
            t = type(v)
            if t is float and math.isfinite(v):
                parts.append(f"{key}: {float.__repr__(v)}")
            elif t is str:
                parts.append(f"{key}: {_encode_str(v)}")
            elif v is None:
                parts.append(f"{key}: null")
            else:
                parts.append(f"{key}: {_json_text(v, inner)}")
        body = f",{inner}".join(parts)
        del parts
        return f"{{{inner}{body}{pad}}}" if o else "{}"
    if isinstance(o, (list, tuple)):
        inner = pad + "  "
        parts = []
        for v in o:
            t = type(v)
            if t is float and math.isfinite(v):
                parts.append(float.__repr__(v))
            elif t is str:
                parts.append(_encode_str(v))
            elif v is None:
                parts.append("null")
            else:
                parts.append(_json_text(v, inner))
        body = f",{inner}".join(parts)
        del parts
        return f"[{inner}{body}{pad}]" if o else "[]"
    return _encode_str(str(o))


def _selected_contexts(doc: ModelDocument, name: str | None):
    if name is None:
        return dict(doc.contexts)
    return {name: doc.context(name)}


def _chain_payload(chain) -> dict:
    return {
        "order": list(chain.order),
        "levels": {
            str(x): [
                {
                    "level": rec.level,
                    "coefficient": rec.coefficient,
                    "phase": rec.phase,
                    "arg": rec.arg,
                    "partial": {"re": rec.partial.real, "im": rec.partial.imag},
                    "tail_probability": rec.tail_probability,
                }
                for rec in records
            ]
            for x, records in chain.levels.items()
        },
        "betas": {str(x): list(b) for x, b in chain.betas.items()},
    }


def _split_states(doc: ModelDocument, pair, args):
    """``(name, (psi, chain))`` of the split recursion, or ``(name,
    refusal)``, per selected context of an n-valued ``pair``; the conjugate
    ``--branch`` takes the other arccos branch at every level."""
    signs = (1 if args.branch == "principal" else -1,) * (len(pair.a_values) - 1)
    for name, event in _selected_contexts(doc, args.context).items():
        try:
            state = mv.build_amplitude_nvalued(
                doc.space, pair, event, branch_signs=signs
            )
        except ContextualProbabilityError as exc:
            state = exc
        yield name, state


# the report name of each class, read without the Enum ``value`` property
_CLASS_NAMES = {cls: cls.value for cls in itf.ContextClass}


def cmd_analyze(args) -> int:
    doc = load_model(args.model)
    space, pair = doc.space, doc.pair
    out: dict = {"contexts": {}}
    if not pair.dichotomous:
        for name, state in _split_states(doc, pair, args):
            if isinstance(state, Exception):
                entry = {"class": "unrepresentable", "reason": str(state)}
            else:
                chain = _chain_payload(state[1])
                entry = {"class": "split-representable", "split_chain": chain}
            out["contexts"][name] = entry
        _emit(out, args)
        return 0
    selected = _selected_contexts(doc, args.context).items()
    b_keys = [str(x) for x in pair.b_values]
    for name, _, coeffs in itf.read_contexts(space, pair, selected):
        if isinstance(coeffs, Exception):
            out["contexts"][name] = {"class": "degenerate", "reason": str(coeffs)}
            continue
        cls = coeffs.context_class
        entry: dict = {"class": _CLASS_NAMES[cls], "outcomes": {}}
        thetas = epsilons = None
        if cls is not itf.ContextClass.MIXED:
            _, thetas, epsilons = itf.assign_phases(coeffs, args.branch)
        for j, key in enumerate(b_keys):
            entry["outcomes"][key] = {
                "delta": coeffs.deltas[j],
                "lambda": coeffs.lambdas[j],
                "theta": None if thetas is None else thetas[j],
                "epsilon": None if epsilons is None else epsilons[j],
            }
        out["contexts"][name] = entry
    _emit(out, args)
    return 0


def _born_residual(psi, coeffs) -> float:
    """The worst |Born probability - P(b=x|C)| over the b-outcomes."""
    return max(
        abs(psi.born(x) - p) for x, p in zip(coeffs.pair.b_values, coeffs.b_profile)
    )


def _complex_entry(coeffs, branch, basis):
    psi = cr.amplitude_from_coefficients(coeffs, branch)
    entry = {
        "amplitude": _amplitude_payload(psi),
        "branch": branch,
        "born_b_residual": _born_residual(psi, coeffs),
    }
    if basis.unitary:
        entry["born_a_residual"] = max(
            abs(cr.born_probability(psi, basis.vectors[i]) - coeffs.a_profile[i])
            for i in range(2)
        )
    return entry


def cmd_represent(args) -> int:
    doc = load_model(args.model)
    space, pair = doc.space, doc.pair
    anchor = space.full_event() if args.anchor is None else doc.context(args.anchor)
    if not pair.dichotomous:
        return _represent_nvalued(doc, pair, args)
    basis = cr.a_basis_for_context(space, pair, anchor, args.branch)
    out: dict = {"complex": {}, "hyperbolic": {}, "operators": {}}
    out["basis_unitary"] = basis.unitary
    if not basis.unitary:
        out["basis_witness"] = basis.witness
    reads = itf.read_contexts(space, pair, doc.contexts.items())
    # a shared module basis for the a-side decomposability flags: anchored at
    # the first strictly hyperbolic declared context, when one exists.  The
    # reads of the contexts searched are kept for the report.
    searched = []
    g_basis = None
    if basis.unitary:
        for read in reads:
            searched.append(read)
            coeffs = read[2]
            if isinstance(coeffs, Exception):
                continue
            if coeffs.context_class is itf.ContextClass.HYPERBOLIC:
                g_basis = hr.hyperbolic_a_basis(coeffs)
                gram = g_basis.gram_residual  # reported, null if not finite
                out["hyperbolic_basis_gram_residual"] = (
                    gram if math.isfinite(gram) else None
                )
                break
    if args.context is None:
        reads = itertools.chain(searched, reads)
    else:
        selected = _selected_contexts(doc, args.context)
        kept = [read for read in searched if read[0] in selected]
        reads = kept or itf.read_contexts(space, pair, selected.items())

    for name, _, coeffs in reads:
        if isinstance(coeffs, Exception):
            out["complex"][name] = {"skipped": str(coeffs)}
            out["hyperbolic"][name] = {"skipped": str(coeffs)}
            continue
        try:
            out["complex"][name] = _complex_entry(coeffs, args.branch, basis)
        except ContextualProbabilityError as exc:
            out["complex"][name] = {"skipped": str(exc)}
        try:
            psi = hr.hyperbolic_amplitude_from_coefficients(coeffs)
            decomposable = {"b": hr.check_decomposability(psi.components)}
            if g_basis is not None:
                decomposable["a"] = hr.check_decomposability(
                    hr.expand_in_basis(psi, g_basis)
                )
            out["hyperbolic"][name] = {
                "components": [{"x": c.x, "y": c.y} for c in psi.components],
                "epsilons": list(psi.epsilons),
                "thetas": list(psi.thetas),
                "born_residual": _born_residual(psi, coeffs),
                "decomposable": decomposable,
            }
        except ContextualProbabilityError as exc:
            out["hyperbolic"][name] = {"skipped": str(exc)}
    b_op = cr.operator_for_b(pair)
    out["operators"]["b"] = _matrix_payload(b_op.matrix)
    if basis.unitary:
        a_op = cr.operator_for_variable(pair.a_values, basis)
        out["operators"]["a"] = _matrix_payload(a_op.matrix)
        out["operators"]["commutator_b_a"] = _matrix_payload(
            cr.commutator(b_op, a_op)
        )
    _emit(out, args)
    return 0


def _represent_nvalued(doc, pair, args) -> int:
    """Split-recursion report for pairs with more than two values."""
    if args.anchor is not None:
        raise ModelValidationError(
            "--anchor needs a dichotomous reference pair; the split recursion "
            "of this pair builds no anchored basis"
        )
    out: dict = {"complex": {}, "operators": {}}
    for name, state in _split_states(doc, pair, args):
        if isinstance(state, Exception):
            out["complex"][name] = {"skipped": str(state)}
            continue
        psi, chain = state
        # the first level's tail is the union of every a-cell, so its
        # target is P(B_j & C) / P(C), the conditional probability
        born = max(
            abs(psi.born(x) - chain.levels[x][0].tail_probability)
            for x in pair.b_values
        )
        out["complex"][name] = {
            "amplitude": _amplitude_payload(psi),
            "branch": args.branch,
            "born_b_residual": born,
            "split_chain": _chain_payload(chain),
        }
    out["operators"]["b"] = _matrix_payload(cr.operator_for_b(pair).matrix)
    _emit(out, args)
    return 0


def _amplitude_payload(psi) -> dict:
    return {
        "re": [float(c.real) for c in psi.components],
        "im": [float(c.imag) for c in psi.components],
    }


def _matrix_payload(m):
    return [
        [{"re": float(v.real), "im": float(v.imag)} for v in row] for row in m
    ]


def cmd_verify(args) -> int:
    doc = load_model(args.model)
    report = run_suite(doc, args.suite, tolerance=args.tolerance)
    _emit(report.to_dict(), args)
    return 0 if report.passed else 1


def cmd_example_kq(args) -> int:
    q = args.q
    gamma = 1.0  # the kq variables take the values +1 and -1
    try:
        doc = generate_kq(q)
    except ContextualProbabilityError as exc:
        raise ModelValidationError(str(exc)) from None
    space, pair = doc.space, doc.pair
    rows: list[dict] = []

    def row(name: str, reference: float, computed: float) -> None:
        rows.append(
            {
                "quantity": name,
                "closed_form": reference,
                "computed": computed,
                "abs_diff": abs(reference - computed),
            }
        )

    t = transition_matrix(space, pair, "b/a")
    row("p(b1|a1)", 2 * q, t.rows[0][0])
    row("p(b2|a1)", 1 - 2 * q, t.rows[0][1])
    for i, p_a in enumerate(pair_tables(space, pair).free.a_row):
        row(f"P(A{i + 1})", 0.5, p_a)

    lam_forms = {
        "C123": -math.sqrt(1 - 2 * q) / 2,
        "C124": math.sqrt(q / 2),
        "C134": math.sqrt(1 - 2 * q) / 2,
        "C234": -math.sqrt(q / 2),
    }
    for name, closed in lam_forms.items():
        lam = itf.interference_coefficients(space, pair, doc.context(name)).lambdas[0]
        row(f"lambda(b1, {name})", closed, lam)

    psi24 = cr.build_amplitude(space, pair, doc.context("C24"), "principal")
    row("Re psi_C24(b1)", math.sqrt(q), psi24.component(1.0).real)
    row("Im psi_C24(b1)", math.sqrt((1 - 2 * q) / 2), psi24.component(1.0).imag)
    row("Re psi_C24(b2)", math.sqrt((1 - 2 * q) / 2), psi24.component(-1.0).real)
    row("Im psi_C24(b2)", -math.sqrt(q), psi24.component(-1.0).imag)

    c234 = doc.context("C234")
    b_op = cr.operator_for_b(pair)
    basis = cr.a_basis_for_context(space, pair, space.full_event())
    a_op = cr.operator_for_variable(pair.a_values, basis)
    psi234 = cr.build_amplitude(space, pair, c234)
    closed_avg = q / (q - 1)
    row("E(b|C234)", closed_avg, cr.quantum_average(b_op, psi234))
    row("E(a|C234)", closed_avg, cr.quantum_average(a_op, psi234))

    mismatch = cr.distribution_mismatch(space, pair, c234, gamma)
    row("classical p(-2g)", q / (1 - q), mismatch.classical_dist[-2 * gamma])
    row("classical p(0)", (1 - 2 * q) / (1 - q), mismatch.classical_dist[0.0])
    row("classical p(+2g)", 0.0, mismatch.classical_dist[2 * gamma])
    s = math.sqrt(2 * q)
    k1, k2 = 2 * s * gamma, -2 * s * gamma
    quantum = dict(mismatch.quantum_dist)
    row("quantum p(k1)", (1 - s) * (2 + s) / (4 * (1 - q)), quantum[max(quantum)])
    row("quantum p(k2)", (1 + s) * (2 - s) / (4 * (1 - q)), quantum[min(quantum)])
    row("spectrum k1", k1, max(quantum))
    row("spectrum k2", k2, min(quantum))
    row("avg (classical)", 2 * closed_avg * gamma, mismatch.classical_average)
    row("avg (spectral)", 2 * closed_avg * gamma, mismatch.quantum_average)

    comm = cr.commutator(b_op, a_op)
    q1q2 = math.sqrt(2 * q * (1 - 2 * q))
    closed_offdiag = (
        (pair.a_values[0] - pair.a_values[1])
        * (pair.b_values[0] - pair.b_values[1])
        * q1q2
    )
    row("commutator [b,a]_12", closed_offdiag, comm[0][1].real)

    worst = max(r["abs_diff"] for r in rows)
    _emit({"q": q, "gamma": gamma, "rows": rows, "worst_abs_diff": worst}, args)
    tol = KQ_EXAMPLE_TOL if args.tolerance is None else args.tolerance
    return 0 if worst <= tol else 1


def cmd_gen_random(args) -> int:
    try:
        doc = generate_random_model(
            seed=args.seed,
            n_points=args.points,
            value_arities=(args.arity_a, args.arity_b),
            double_stochastic=args.double_stochastic,
            incompatible=not args.allow_compatible,
            n_contexts=args.contexts,
        )
    except (ContextualProbabilityError, ValueError) as exc:
        raise ModelValidationError(str(exc)) from None
    if args.output:
        save_model(doc, args.output)
    else:
        print(dumps_model(doc), end="")
    return 0


def _add_common(parser: argparse.ArgumentParser, tolerance: bool) -> None:
    """The output flag, and ``--tolerance`` for the commands that gate on
    a report tolerance."""
    parser.add_argument("--output", default=None, help="write the report here")
    if tolerance:
        parser.add_argument(
            "--tolerance",
            type=float,
            default=None,
            help="override the report tolerance, a finite number >= 0 (not "
            "internal identity checks)",
        )


class _Parser(argparse.ArgumentParser):
    """A parser, and the parser of each subcommand, that raises its usage
    errors for :func:`main` to report, instead of printing the usage text
    and exiting."""

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="contextprob",
        description="contextual probability calculus and its Hilbert-space "
        "representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
        ("analyze", "interference coefficients per context", cmd_analyze),
        ("represent", "state vectors and operators", cmd_represent),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model")
        p.add_argument("--context", default=None)
        p.add_argument(
            "--branch", choices=("principal", "conjugate"), default="principal"
        )
        if func is cmd_represent:
            p.add_argument("--anchor", default=None, help="anchor context name")
        _add_common(p, tolerance=False)
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run named verification checks")
    p.add_argument("model")
    p.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="all",
    )
    _add_common(p, tolerance=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example", help="bundled models reproduced end to end")
    example_sub = p.add_subparsers(dest="example", required=True)
    kq = example_sub.add_parser("kq", help="four-point two-parameter model")
    kq.add_argument("--q", type=float, required=True)
    _add_common(kq, tolerance=True)
    kq.set_defaults(func=cmd_example_kq)

    p = sub.add_parser("gen", help="model generators")
    gen_sub = p.add_subparsers(dest="generator", required=True)
    rnd = gen_sub.add_parser("random", help="seeded random model")
    rnd.add_argument("--seed", type=int, required=True)
    rnd.add_argument("--points", type=int, required=True)
    rnd.add_argument("--arity-a", type=int, default=2)
    rnd.add_argument("--arity-b", type=int, default=2)
    ds_group = rnd.add_mutually_exclusive_group()
    ds_group.add_argument(
        "--double-stochastic", dest="double_stochastic",
        action="store_const", const=True, default=None,
    )
    ds_group.add_argument(
        "--not-double-stochastic", dest="double_stochastic",
        action="store_const", const=False,
    )
    rnd.add_argument("--allow-compatible", action="store_true")
    rnd.add_argument("--contexts", type=int, default=8)
    rnd.add_argument("--output", default=None)
    rnd.set_defaults(func=cmd_gen_random)

    return parser


def _diagnose(error: str, exc: Exception, code: int) -> int:
    print(json.dumps({"error": error, "detail": str(exc)}), file=sys.stderr)
    return code


@cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    # one parser per process: parsing keeps no state in it, and a parser
    # that lives as long as the process leaves no reference cycles behind
    # for the collector after a command
    try:
        args = _parser().parse_args(argv)
        tolerance = getattr(args, "tolerance", None)
        if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
            raise ModelValidationError(
                f"--tolerance must be finite and nonnegative, got {tolerance!r}"
            )
        return args.func(args)
    except argparse.ArgumentError as exc:
        return _diagnose("usage", exc, 2)
    except ModelValidationError as exc:
        return _diagnose("model-validation", exc, 2)
    except OSError as exc:
        return _diagnose(type(exc).__name__, exc, 2)
    except InvariantViolation as exc:
        return _diagnose(type(exc).__name__, exc, 1)
    except ContextualProbabilityError as exc:
        return _diagnose(type(exc).__name__, exc, 3)


if __name__ == "__main__":
    sys.exit(main())
