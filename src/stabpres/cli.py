"""Command line interface.

Subcommands:
  validate    check the hypotheses on the action exactly as given
  quotient    refine the action and emit the orbit complex + projection
  present     emit the stabilizer presentation
  express     write a group element as a word in vertex stabilizers
  verify      full certificate: presentation, enumeration, psi checks
  abelianize  compare colimit H1 against the brute-force abelianization
  homology    H1 or H2 of a complex (or of an action's complex)

Exit codes: 0 success, 1 validation or certificate failure (or a closed
stdout pipe, which writes nothing to stderr), 2 resource bound hit, 3
malformed input.  With --format json all reports (and errors, on
stderr) are machine readable; identical inputs and seed give
byte-identical output.  STABPRES_MAX_COSETS and STABPRES_BUDGET set
default resource bounds; a coset bound below 1 or a budget below 0 is
malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .abelian import (
    colimit_H1,
    group_abelianization,
    homology_invariants,
    is_simply_connected,
    is_two_connected,
)
from .actions import (
    GroupAction,
    Permutation,
    _read_json,
    action_from_json_obj,
    build_quotient,
    check_without_rotations,
    load_action,
    mark_without_rotations,
    parse_cycles,
    refine_action_tracked,
    rotation_string,
)
from .armstrong import armstrong_express, psi_evaluate
from .complexes import complex_from_json_obj
from .errors import (
    BadSize,
    BudgetExhausted,
    GroupTooLarge,
    MalformedInput,
    NotABijection,
    StabpresError,
    UnknownVertex,
)
from .presentation import (
    DEFAULT_MAX_COSETS,
    build_presentation,
    todd_coxeter,
    verify_theorem,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RESOURCE = 2
EXIT_MALFORMED = 3


class _Failure(Exception):
    """Internal: a report that must end the run with a specific code."""

    def __init__(self, code, kind, detail):
        super().__init__(detail)
        self.code = code
        self.kind = kind
        self.detail = detail


def _exit_code_for(exc):
    if isinstance(exc, (MalformedInput, UnknownVertex, NotABijection, BadSize)):
        return EXIT_MALFORMED
    if isinstance(exc, (BudgetExhausted, GroupTooLarge)):
        return EXIT_RESOURCE
    return EXIT_INVALID


def _bound(value, flag, env, fallback, minimum):
    """A resource bound from its flag, else its environment variable, else
    the fallback; a bound below its minimum is malformed input."""
    name, raw = (env, os.environ.get(env)) if value is None else (flag, value)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError as exc:
        raise MalformedInput(f"{name} must be an integer, got {raw!r}") from exc
    if value < minimum:
        raise MalformedInput(f"{name} must be at least {minimum}, got {value}")
    return value


def _emit(report, fmt, text_lines, file=None):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2), file=file)
    else:
        for line in text_lines:
            print(line, file=file)


def _fail(code, kind, detail):
    raise _Failure(code, kind, detail)


def _require_hypotheses(K, quotient, bound):
    """Fail unless K is simply connected and the quotient 2-connected;
    an exhausted pi1 enumeration is a resource failure."""
    for kind, check, complex_ in (
        ("simply_connected", is_simply_connected, K),
        ("two_connected", is_two_connected, quotient),
    ):
        result = check(complex_, bound=bound)
        if result.verdict == "unknown":
            _fail(EXIT_RESOURCE, kind, result.witness)
        if result.verdict == "no":
            _fail(EXIT_INVALID, kind, result.witness)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args):
    A = load_action(args.action)
    ok, witness = check_without_rotations(A)
    if not ok:
        _fail(EXIT_INVALID, "rotation", rotation_string(witness))
    A = GroupAction(A.complex, A.group, True, A.subdivisions)
    Q = build_quotient(A)  # OrbitCollision propagates as exit 1
    _require_hypotheses(A.complex, Q.quotient, args.max_cosets)
    nv, ne, nt = A.complex.counts()
    qv, qe, qt = Q.quotient.counts()
    report = {
        "ok": True,
        "complex": {"vertices": nv, "edges": ne, "triangles": nt},
        "group_order": A.group.order(),
        "quotient": {"vertices": qv, "edges": qe, "triangles": qt},
        "simply_connected": True,
        "two_connected": True,
        "without_rotations": True,
    }
    _emit(
        report,
        args.format,
        [
            f"complex: {nv} vertices, {ne} edges, {nt} triangles",
            f"group order: {A.group.order()}",
            "without rotations: yes",
            f"quotient: {qv} vertices, {qe} edges, {qt} triangles",
            "complex simply connected: yes",
            "quotient 2-connected: yes",
        ],
    )
    return EXIT_OK


def _cmd_quotient(args):
    if args.raw:
        A = mark_without_rotations(load_action(args.action))
        subdivisions = 0
        Q = build_quotient(A)
    else:
        A, _, Q = refine_action_tracked(load_action(args.action))
        subdivisions = A.subdivisions
    report = {
        "subdivisions": subdivisions,
        "quotient": Q.quotient.to_json_obj(),
        "projection": {str(v): str(Q.projection[v]) for v in A.complex.sorted_vertices},
    }
    qv, qe, qt = Q.quotient.counts()
    lines = [
        f"subdivisions: {subdivisions}",
        f"quotient: {qv} vertices, {qe} edges, {qt} triangles",
    ] + [f"  {v} -> {Q.projection[v]}" for v in A.complex.sorted_vertices]
    _emit(report, args.format, lines)
    return EXIT_OK


def _cmd_present(args):
    A, _, Q = refine_action_tracked(load_action(args.action))
    P = build_presentation(A, Q)
    if args.format == "json":
        _emit(dict(P.to_json_obj(), subdivisions=A.subdivisions), "json", ())
    else:
        _emit(None, "text", [P.to_text()])
    return EXIT_OK


def _cmd_express(args):
    A0 = load_action(args.action)
    try:
        cycles = parse_cycles(args.element)
        g0 = Permutation.from_cycles(A0.complex.sorted_vertices, cycles)
    except StabpresError as exc:
        _fail(EXIT_MALFORMED, "element", str(exc))
    if g0 not in A0.group:
        _fail(EXIT_INVALID, "element", f"{args.element} is not in the acting group")
    A, lift, Q = refine_action_tracked(A0)
    g = lift(g0)
    basepoint = args.basepoint if args.basepoint is not None else min(A.complex.vertices)
    word = armstrong_express(A, Q, basepoint, g, seed=args.seed, budget=args.budget)
    value = psi_evaluate(word, A.group.identity)
    if value != g:  # the word's one psi check; an assert would vanish under -O
        detail = f"psi(word) is {value.cycle_string()}, not {g.cycle_string()}"
        _fail(EXIT_INVALID, "psi_check", detail)
    report = {
        "basepoint": str(basepoint),
        "element": g.cycle_string(),
        "psi": value.cycle_string(),
        "psi_check": "ok",
        "seed": args.seed,
        "subdivisions": A.subdivisions,
        "word": word.to_json_obj(),
        "word_text": str(word),
    }
    _emit(
        report,
        args.format,
        [
            f"word: {word}",
            f"letters: {len(word.letters)}",
            f"psi(word): {value.cycle_string()}",
            "psi check: ok",
        ],
    )
    return EXIT_OK


def _cmd_verify(args):
    A, _, Q = refine_action_tracked(load_action(args.action))
    _require_hypotheses(A.complex, Q.quotient, args.max_cosets)
    P = build_presentation(A, Q)
    T = todd_coxeter(P, max_cosets=args.max_cosets)
    if T.status != "complete":
        _fail(
            EXIT_RESOURCE,
            "enumeration",
            f"coset enumeration exhausted the bound of {T.bound}",
        )
    cert = verify_theorem(A, Q, P, T)  # CertificateFailed propagates as exit 1
    report = {
        "ok": True,
        "status": f"Complete({T.order})",
        "group_order": cert.group_order,
        "enumerated_order": cert.enumerated_order,
        "generators": len(P.generators),
        "relators": len(P),
        "subdivisions": A.subdivisions,
        "checks": cert.to_json_obj()["checks"],
    }
    lines = [
        f"Complete({T.order}) = |G| = {cert.group_order}",
        f"presentation: {len(P.generators)} generators, {len(P)} relators",
        f"subdivisions: {A.subdivisions}",
    ] + [f"  {c['name']}: {c['detail']}" for c in report["checks"]]
    _emit(report, args.format, lines)
    return EXIT_OK


def _cmd_abelianize(args):
    A, _, Q = refine_action_tracked(load_action(args.action))
    _require_hypotheses(A.complex, Q.quotient, args.max_cosets)
    gab = group_abelianization(A.group)
    col = colimit_H1(A, Q)
    match = gab == col
    report = {
        "colimit_H1": col.to_json_obj(),
        "group_abelianization": gab.to_json_obj(),
        "match": match,
    }
    lines = [
        f"group abelianization: {gab}",
        f"colimit H1: {col}",
        f"match: {'yes' if match else 'no'}",
    ]
    _emit(report, args.format, lines, None if match else sys.stderr)
    return EXIT_OK if match else EXIT_INVALID


def _cmd_homology(args):
    obj = _read_json(args.path)
    if isinstance(obj, dict) and "generators" in obj:
        K = action_from_json_obj(obj).complex
    else:
        K = complex_from_json_obj(obj)
    inv = homology_invariants(K, args.k)
    report = {"degree": args.k, "invariants": inv.to_json_obj()}
    _emit(report, args.format, [f"H_{args.k} = {inv}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stabpres",
        description="stabilizer presentations of simplicial group actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, action=True):
        if action:
            p.add_argument("action", help="action JSON file")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )

    p = sub.add_parser("validate", help="check the hypotheses on the action as given")
    common(p)
    p.add_argument("--max-cosets", type=int, default=None)

    p = sub.add_parser("quotient", help="emit the orbit complex and projection")
    common(p)
    p.add_argument(
        "--raw", action="store_true", help="fail rather than subdivide first"
    )

    p = sub.add_parser("present", help="emit the stabilizer presentation")
    common(p)

    p = sub.add_parser("express", help="write a group element as a stabilizer word")
    common(p)
    p.add_argument("-g", "--element", required=True, help='cycles, e.g. "(a b)"')
    p.add_argument("--basepoint", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("verify", help="run the full theorem certificate")
    common(p)
    p.add_argument("--max-cosets", type=int, default=None)

    p = sub.add_parser("abelianize", help="compare colimit H1 with G^ab")
    common(p)
    p.set_defaults(max_cosets=None)  # the hypothesis checks' bound, from the environment

    p = sub.add_parser("homology", help="H1 or H2 of a complex or action")
    p.add_argument("path", help="complex or action JSON file")
    p.add_argument("-k", type=int, choices=(1, 2), required=True)
    common(p, action=False)
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "quotient": _cmd_quotient,
    "present": _cmd_present,
    "express": _cmd_express,
    "verify": _cmd_verify,
    "abelianize": _cmd_abelianize,
    "homology": _cmd_homology,
}


def _report_error(fmt, kind, detail, code):
    if fmt == "json":
        obj = {"error": kind, "detail": detail, "exit": code}
        print(json.dumps(obj, sort_keys=True, indent=2), file=sys.stderr)
    else:
        print(f"error ({kind}): {detail}", file=sys.stderr)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: quiet the interpreter's last flush, and
        # exit 1 as Python does on EPIPE, with nothing on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(args):
    fmt = getattr(args, "format", "text")
    try:
        if hasattr(args, "max_cosets"):
            args.max_cosets = _bound(
                args.max_cosets, "--max-cosets", "STABPRES_MAX_COSETS", DEFAULT_MAX_COSETS, 1
            )
        if hasattr(args, "budget"):
            args.budget = _bound(args.budget, "--budget", "STABPRES_BUDGET", None, 0)
        return _COMMANDS[args.command](args)
    except _Failure as exc:
        _report_error(fmt, exc.kind, exc.detail, exc.code)
        return exc.code
    except StabpresError as exc:
        code = _exit_code_for(exc)
        _report_error(fmt, type(exc).__name__, str(exc), code)
        return code


if __name__ == "__main__":
    sys.exit(main())
