"""The three workloads: what each sets up, runs per pass, and checks.

Each workload has a `setup` (generate and load inputs), a `run_pass`
(one pass over the input set, every result checked), and one CLI run
per pass (`cli_args` plus `cli_ok` on its JSON report).  Every call into
the library goes through `run.tracer.call(span_name, input_name, ...)`;
span names are "<module>.<operation>", so each span belongs to the
stabpres module it calls into.

An operation is one certificate, expression, contraction, collapse,
topology check or CLI run; it fails on a wrong result or an unexpected
exception.  `run.attempted` and `run.failed` count them.
"""

from __future__ import annotations

import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import stabpres as sp

from inputs import (
    dihedral_cone_obj,
    disc,
    expression_seeds,
    rng,
    twice_subdivided,
    write_action,
)
from tracing import Tracer

# ROADMAP baseline: generators, relators, mult, edge, conj, enumerated order.
BASELINE = {
    "f3": (118, 13995, 588, 72, 13335, 48),
    "D16": (95, 9723, 1018, 64, 8641, 32),
}


class CheckFailed(Exception):
    pass


def expect(ok, detail):
    if not ok:
        raise CheckFailed(detail)


@dataclass
class Run:
    root: Path
    work: Path
    seed: int
    tracer: Tracer
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fixture(self, name):
        return self.root / "fixtures" / f"{name}.json"

    def load(self, name, path):
        return self.tracer.call("actions.load", name, sp.load_action, path)

    @contextmanager
    def operation(self, *what):
        """One checked operation; `what` names it if it fails."""
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            print("perfbench: operation failed:", *what, file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def refine_and_quotient(run, name, A0):
    tr = run.tracer
    A = run.tracer.call("actions.refine", name, sp.refine_action, A0)
    Q = run.tracer.call("actions.quotient", name, sp.build_quotient, A)
    tr.count("actions.group_order", A.group.order())
    tr.count("actions.subdivisions", A.subdivisions)
    tr.count("actions.vertices", len(A.complex.vertices))
    tr.count("actions.quotient_vertices", len(Q.quotient.vertices))
    return A, Q


def count_presentation(tr, P):
    if not tr.enabled:
        return
    tr.count("presentation.generators", len(P.generators))
    tr.count("presentation.relators", len(P.relators))
    for tag, n in P.counts_by_tag().items():
        tr.count(f"presentation.relators.{tag}", n)
    with tr.counting():
        tr.count("presentation.json_bytes", len(P.to_json().encode()))


def count_smith(tr, rows, cols):
    tr.count("abelian.smith_rows", rows)
    tr.count("abelian.smith_cols", cols)


def hypotheses(run, name, A, Q):
    """The CLI's hypothesis checks: X simply connected, X/G 2-connected."""
    sc = run.tracer.call("abelian.pi1", name, sp.is_simply_connected, A.complex)
    tc = run.tracer.call("abelian.pi1", name, sp.is_two_connected, Q.quotient)
    expect(sc.verdict == "yes", f"{name}: simply connected: {sc.verdict} {sc.witness}")
    expect(tc.verdict == "yes", f"{name}: quotient 2-connected: {tc.verdict} {tc.witness}")


def colimit_matches(run, name, A, Q):
    col = run.tracer.call("abelian.colimit", name, sp.colimit_H1, A, Q)
    gab = run.tracer.call("abelian.gab", name, sp.group_abelianization, A.group)
    expect(col == gab, f"{name}: colimit H1 {col} != G^ab {gab}")


def express_checked(run, name, A, Q, base, g, seed):
    tr = run.tracer
    w = run.tracer.call("armstrong.express", name, sp.armstrong_express, A, Q, base, g, seed=seed)
    value = sp.psi_evaluate(w, A.group.identity)
    if value != g:
        raise CheckFailed(f"{name}: psi(express({g.cycle_string()})) = {value.cycle_string()}")
    tr.count("armstrong.calls", 1)
    tr.count("armstrong.letters", len(w.letters))
    if tr.enabled:
        with tr.counting():
            # shortest-path length: the same for every seed's tie-break
            tr.count("armstrong.path_edges", len(sp.find_path(A.complex, base, g(base))))
    return w


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run_pass: object
    cli_args: object
    cli_ok: object


# ---------------------------------------------------------------------------
# certify: the paper's main use.  Each input runs refine -> quotient ->
# hypothesis checks -> presentation -> Todd-Coxeter -> certificate ->
# colimit H1 vs G^ab.  Relators grow quadratically in total stabilizer
# size (2,335 / 5,397 / 9,723 for D8/D12/D16; 13,995 for f3), so the
# presentation layer does about 90% of the work; quotient loops have at
# most 4 edges, so homotopy does almost none.


def certify_setup(run):
    paths = {f: run.fixture(f) for f in ("f1", "f2", "f3")}
    for n in (8, 12, 16):
        paths[f"D{n}"] = write_action(run.work, f"D{n}", dihedral_cone_obj(n, run.seed))
    return {name: run.load(name, path) for name, path in paths.items()}


def certify_pass(run, actions, index):
    for name, A0 in actions.items():
        with run.operation(f"certify {name}"), run.tracer.span("bench.certificate", name):
            certificate(run, name, A0)


def certificate(run, name, A0):
    tr = run.tracer
    A, Q = refine_and_quotient(run, name, A0)
    hypotheses(run, name, A, Q)
    P = run.tracer.call("presentation.build", name, sp.build_presentation, A, Q)
    T = run.tracer.call("presentation.todd_coxeter", name, sp.todd_coxeter, P)
    cert = run.tracer.call("presentation.verify", name, sp.verify_theorem, A, Q, P, T)
    order = A.group.order()
    expect(T.status == "complete" and T.order == order, f"{name}: {T.status} {T.order} vs |G| {order}")
    expect(cert.enumerated_order == cert.group_order == order, f"{name}: certificate orders")
    colimit_matches(run, name, A, Q)
    count_presentation(tr, P)
    tr.count("presentation.cosets", T.order)
    if tr.enabled and name in BASELINE:
        tags = P.counts_by_tag()
        seen = (len(P.generators), len(P.relators), tags.get("mult", 0),
                tags.get("edge", 0), tags.get("conj", 0), T.order)
        verdict = "matches" if seen == BASELINE[name] else f"differs from {BASELINE[name]}"
        note = (f"baseline {name}: {seen[0]} generators, {seen[1]} relators "
                f"(mult {seen[2]}, edge {seen[3]}, conj {seen[4]}), Complete({seen[5]}): {verdict}")
        if note not in run.notes:
            run.notes.append(note)


def certify_cli(run, state):
    return ["verify", str(run.fixture("f3")), "--format", "json"]


def certify_cli_ok(report):
    return report.get("ok") is True and report.get("status") == "Complete(48)"


# ---------------------------------------------------------------------------
# express: the expression path.  armstrong_express on every element of f3
# and D16 under 25 expression seeds each (2,000 calls, seed 0 canonical)
# gives a per-call latency distribution; contract_loop on random disc
# boundaries of length 6, 7 and 8 puts the exponential contraction search
# on the blocking path.  presentation is never called, so a presentation
# or Todd-Coxeter change must show no change here.

EXPRESSION_SEEDS = 25
DISC_SIZES = (6, 7, 8)
DISCS_PER_SIZE = 4
DISC_SETS = 16  # pass k contracts disc set k mod DISC_SETS


def express_setup(run):
    inputs = {}
    f3 = run.load("f3", run.fixture("f3"))
    d16 = run.load("D16", write_action(run.work, "D16", dihedral_cone_obj(16, run.seed)))
    for name, A0 in (("f3", f3), ("D16", d16)):
        A, Q = refine_and_quotient(run, name, A0)
        seeds = expression_seeds(run.seed, name, EXPRESSION_SEEDS)
        inputs[name] = (A, Q, min(A.complex.vertices), seeds)
    disc_sets = [
        [(n, disc(n, run.seed, k, i)) for n in DISC_SIZES for i in range(DISCS_PER_SIZE)]
        for k in range(DISC_SETS)
    ]
    r = rng(run.seed, "cli")
    element = r.choice(f3.group.elements).cycle_string()
    return {"inputs": inputs, "discs": disc_sets, "cli": (element, r.randrange(1, 2**31))}


def express_pass(run, state, index):
    for name, (A, Q, base, seeds) in state["inputs"].items():
        for g in A.group.elements:
            for seed in seeds:
                with run.operation("express", name, g, "seed", seed):
                    express_checked(run, name, A, Q, base, g, seed)
    tr = run.tracer
    for n, d in state["discs"][index % DISC_SETS]:
        name = f"disc{n}"
        with run.operation(f"contract {name}"):
            log = run.tracer.call("homotopy.contract", name, sp.contract_loop, d.complex, d.boundary, d.basepoint)
            final = log.final_loop(d.complex).vertices
            expect(final == (d.basepoint,), f"{name}: contraction log replays to {final}")
            tri, back = log.move_counts()
            tr.count("homotopy.loops", 1)
            tr.count("homotopy.loop_edges", len(d.boundary))
            tr.count("homotopy.moves.tri", tri)
            tr.count("homotopy.moves.back", back)
        with run.operation(f"collapse {name}"):
            ok = run.tracer.call("homotopy.collapse", name, lambda: sp.verify_collapse(sp.collapse_disc(d)))
            expect(ok is True, f"{name}: collapse certificate rejected")


def express_cli(run, state):
    element, seed = state["cli"]
    return ["express", str(run.fixture("f3")), "-g", element, "--seed", str(seed), "--format", "json"]


def express_cli_ok(report):
    return report.get("psi_check") == "ok" and report.get("psi") == report.get("element")


# ---------------------------------------------------------------------------
# topology: the abelian side.  Sd^2(f3) (146 vertices, 432 edges, 288
# triangles) runs dense integer Smith elimination without transforms
# (boundary matrices); AbelianizedWords on the D4 and D6 cone
# presentations (537 and 1,278 relators) runs it with transforms.
# Todd-Coxeter runs here only on pi1 presentations, whose short relators
# collapse to one coset, against certify's long relators closing at |G|
# cosets; so a Smith or enumerator change that helps certify but costs
# this use shows up here.  f4 and f5 are the negative controls.

WORD_SEEDS = 5


def topology_setup(run):
    tr = run.tracer
    f3 = run.load("f3", run.fixture("f3"))
    sd2_obj = run.tracer.call("actions.refine", "Sd2(f3)", twice_subdivided, f3)
    tr.count("actions.subdivisions", 2)
    sd2_path = write_action(run.work, "sd2_f3", sd2_obj)
    state = {
        "sd2": run.load("Sd2(f3)", sd2_path),
        "sd2_path": sd2_path,
        "f4": run.load("f4", run.fixture("f4")),
        "f5": run.load("f5", run.fixture("f5")),
        "cones": {},
    }
    for n in (4, 6):
        name = f"D{n}"
        A0 = run.load(name, write_action(run.work, name, dihedral_cone_obj(n, run.seed)))
        A, Q = refine_and_quotient(run, name, A0)
        P = run.tracer.call("presentation.build", name, sp.build_presentation, A, Q)
        count_presentation(tr, P)
        seeds = expression_seeds(run.seed, name, WORD_SEEDS)
        state["cones"][name] = (A, Q, P, min(A.complex.vertices), seeds)
    return state


def topology_pass(run, state, index):
    tr = run.tracer
    name = "Sd2(f3)"
    with run.operation(f"{name} hypotheses"):
        A, Q = refine_and_quotient(run, name, state["sd2"])
        hypotheses(run, name, A, Q)
    K = state["sd2"].complex
    nv, ne, nt = K.counts()
    with run.operation(f"{name} H1"):
        h1 = run.tracer.call("abelian.homology", name, sp.homology_invariants, K, 1)
        count_smith(tr, nv + ne, ne + nt)
        expect(h1.rank == 0 and h1.torsion == (), f"{name}: H1 = {h1}")
    with run.operation(f"{name} H2"):
        h2 = run.tracer.call("abelian.homology", name, sp.homology_invariants, K, 2)
        count_smith(tr, ne, nt)
        expect(h2.rank == 1 and h2.torsion == (), f"{name}: H2 = {h2}")
    with run.operation(f"{name} colimit"):
        colimit_matches(run, name, A, Q)

    for name, (A, Q, P, base, seeds) in state["cones"].items():
        rows, cols = len(P.relators), len(P.generators)
        with run.operation(f"{name} presentation abelianization"):
            gab = run.tracer.call("abelian.gab", name, sp.group_abelianization, A.group)
            pab = run.tracer.call("abelian.pres_ab", name, sp.presentation_abelianization, P)
            count_smith(tr, rows, cols)
            expect(pab == gab, f"{name}: presentation abelianization {pab} != G^ab {gab}")
        with run.operation(f"{name} abelianized words"):
            words = run.tracer.call("abelian.words", name, sp.AbelianizedWords, P)
            count_smith(tr, rows, cols)
            for g in A.group.elements:
                images = set()
                for seed in seeds:
                    w = express_checked(run, name, A, Q, base, g, seed)
                    images.add(run.tracer.call("abelian.words", name, words.image, w))
                expect(len(images) == 1, f"{name}: {len(images)} images of {g.cycle_string()}")

    with run.operation("f4 rotation witness"):
        ok, witness = run.tracer.call("actions.refine", "f4", sp.check_without_rotations, state["f4"])
        expect(not ok, "f4: accepted as without rotations")
        g, s = witness
        expect(g.cycle_string() == "(1 2 3)" and s == ("1", "2", "3"), f"f4: witness {witness}")
    with run.operation("f5 quotient pi1"):
        A, Q = refine_and_quotient(run, "f5", state["f5"])
        verdict = run.tracer.call("abelian.pi1", "f5", sp.is_two_connected, Q.quotient)
        expect(verdict.verdict == "no" and "pi1 has order 2" in verdict.witness, f"f5: {verdict}")


def topology_cli(run, state):
    return ["homology", str(state["sd2_path"]), "-k", "1", "--format", "json"]


def topology_cli_ok(report):
    return report.get("invariants") == {"rank": 0, "torsion": []}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify", certify_setup, certify_pass, certify_cli, certify_cli_ok),
        Workload("express", express_setup, express_pass, express_cli, express_cli_ok),
        Workload("topology", topology_setup, topology_pass, topology_cli, topology_cli_ok),
    )
}
