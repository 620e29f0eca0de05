"""End-to-end command line behaviour, run in-process."""

import hashlib
import json
from pathlib import Path

import pytest

from stabpres.abelian import AbelianInvariants
from stabpres.cli import main
from stabpres.fixtures import octahedron_boundary, write_fixtures

COMMITTED_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def clean_env(monkeypatch):
    monkeypatch.delenv("STABPRES_MAX_COSETS", raising=False)
    monkeypatch.delenv("STABPRES_BUDGET", raising=False)


# -- documented examples ------------------------------------------------


def test_validate_rotation_control(fixture_dir, capsys, clean_env):
    code, out, err = run(capsys, "validate", str(fixture_dir / "f4.json"))
    assert code == 1
    assert "(1 2 3) rotates simplex {1,2,3}" in err
    assert out == ""


def test_verify_flip(fixture_dir, capsys, clean_env):
    code, out, err = run(capsys, "verify", str(fixture_dir / "f1.json"))
    assert code == 0 and err == ""
    assert "Complete(2) = |G| = 2" in out


def test_express_flip(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "express", str(fixture_dir / "f1.json"), "-g", "(a b)"
    )
    assert code == 0 and err == ""
    assert "word: (a b)@m" in out
    assert "psi(word): (a b)" in out
    assert "psi check: ok" in out


def test_verify_rotation_after_refinement(fixture_dir, capsys, clean_env):
    # f4 rotates its triangle, so verify refines it twice; the quotient's
    # loops contract under the filling bound
    code, out, err = run(capsys, "verify", str(fixture_dir / "f4.json"), "--format", "json")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["ok"] is True and report["status"] == "Complete(3)"
    assert report["subdivisions"] == 2


def test_express_rotation_after_refinement(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "express", str(fixture_dir / "f4.json"), "-g", "(1 2 3)", "--format", "json"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["psi_check"] == "ok" and report["psi"] == report["element"]


def test_express_on_projective_plane_quotient_is_a_resource_failure(
    fixture_dir, capsys, clean_env
):
    # the antipodal map's quotient loop is not an integral boundary in RP^2,
    # so the contraction gives up at once instead of searching to the budget
    code, out, err = run(
        capsys,
        "express",
        str(fixture_dir / "f5.json"),
        "-g",
        "(p1 m1)(p2 m2)(p3 m3)",
        "--format",
        "json",
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BudgetExhausted"
    assert "not null-homologous" in json.loads(err)["detail"]


def test_committed_fixtures_match_builders(tmp_path):
    # the README examples and the benchmark read the committed files, while
    # the suite regenerates its own; the two must not drift apart
    for path in write_fixtures(tmp_path):
        assert path.read_bytes() == (COMMITTED_FIXTURES / path.name).read_bytes()


# -- validate -----------------------------------------------------------


def test_validate_flip_passes(fixture_dir, capsys, clean_env):
    code, out, err = run(capsys, "validate", str(fixture_dir / "f1.json"))
    assert code == 0
    assert "without rotations: yes" in out
    assert "quotient 2-connected: yes" in out


def test_validate_checks_as_given(fixture_dir, capsys, clean_env):
    # the antipodal action needs a subdivision; validate must not subdivide
    code, out, err = run(capsys, "validate", str(fixture_dir / "f5.json"))
    assert code == 1
    assert "share vertex set" in err


# -- quotient -----------------------------------------------------------


def test_quotient_refines(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "quotient", str(fixture_dir / "f2.json"), "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["subdivisions"] == 1
    q = report["quotient"]
    assert (len(q["vertices"]), len(q["edges"]), len(q["triangles"])) == (3, 3, 1)
    assert set(report["projection"].values()) == set(q["vertices"])


def test_quotient_raw_fails_on_collision(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "quotient", str(fixture_dir / "f5.json"), "--raw"
    )
    assert code == 1
    assert "share vertex set" in err


def test_quotient_raw_ok_when_no_refinement_needed(fixture_dir, capsys, clean_env):
    code, out, err = run(capsys, "quotient", str(fixture_dir / "f1.json"), "--raw")
    assert code == 0
    assert "subdivisions: 0" in out
    assert "b -> a" in out


# -- present ------------------------------------------------------------


def test_present_flip_text(fixture_dir, capsys, clean_env):
    code, out, err = run(capsys, "present", str(fixture_dir / "f1.json"))
    assert code == 0
    assert out.strip() == "< (a b)@m | (a b)@m (a b)@m >"


def test_present_s3_json(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "present", str(fixture_dir / "f2.json"), "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["generators"]) == 11
    assert len(report["relators"]) == 136
    assert report["subdivisions"] == 1


# -- express ------------------------------------------------------------


def test_express_accepts_original_names_after_refinement(fixture_dir, capsys, clean_env):
    # (1 2 3) is given on the unsubdivided triangle's vertex names
    code, out, err = run(
        capsys, "express", str(fixture_dir / "f2.json"), "-g", "(1 2 3)"
    )
    assert code == 0
    assert "psi check: ok" in out


def test_express_identity(fixture_dir, capsys, clean_env):
    code, out, err = run(capsys, "express", str(fixture_dir / "f1.json"), "-g", "()")
    assert code == 0
    assert "word: 1" in out


def test_express_rejects_non_group_element(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "express", str(fixture_dir / "f1.json"), "-g", "(a m)"
    )
    assert code == 1
    assert "not in the acting group" in err


def test_express_rejects_unknown_vertex(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "express", str(fixture_dir / "f1.json"), "-g", "(a zz)"
    )
    assert code == 3


def test_express_rejects_bad_cycles(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "express", str(fixture_dir / "f1.json"), "-g", "(a b"
    )
    assert code == 3


def test_express_rejects_a_vertex_repeated_in_a_cycle(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "express", str(fixture_dir / "f1.json"), "-g", "(a a)", "--format", "json"
    )
    assert code == 3 and out == ""
    assert json.loads(err)["detail"] == "malformed input: vertex 'a' appears twice in one cycle"


def test_express_reports_a_word_that_misses_the_element(fixture_dir, capsys, clean_env, monkeypatch):
    import stabpres.cli
    from stabpres.armstrong import StabilizerWord

    # the empty word stands in for a wrong expression of (a b)
    monkeypatch.setattr(stabpres.cli, "armstrong_express", lambda *_, **__: StabilizerWord(()))
    code, out, err = run(capsys, "express", str(fixture_dir / "f1.json"), "-g", "(a b)")
    assert (code, out) == (1, "")
    assert err == "error (psi_check): psi(word) is (), not (a b)\n"


def test_express_seed_changes_word_not_value(fixture_dir, capsys, clean_env):
    outs = set()
    for seed in ("0", "3"):
        code, out, err = run(
            capsys,
            "express", str(fixture_dir / "f2.json"),
            "-g", "(1 2)", "--seed", seed, "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["psi_check"] == "ok"
        assert report["psi"] == "(1 2)(b(1,3) b(2,3))"
        outs.add(out)
    # both runs express the same element even if the words differ
    assert len(outs) in (1, 2)


# -- verify -------------------------------------------------------------


def test_verify_s3_json(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "verify", str(fixture_dir / "f2.json"), "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "Complete(6)"
    assert report["generators"] == 11
    assert report["group_order"] == report["enumerated_order"] == 6
    assert [c["name"] for c in report["checks"]] == [
        "relators_psi_identity",
        "enumeration_complete",
        "order_matches",
        "psi_surjective",
    ]


def test_verify_exhausts_with_tiny_bound(fixture_dir, capsys, clean_env):
    # f3's pi1 checks complete within 4 cosets, and its presentation needs
    # 11 cosets of the largest vertex stabilizer (f1's needs one)
    code, out, err = run(
        capsys, "verify", str(fixture_dir / "f3.json"), "--max-cosets", "10", "--format", "json"
    )
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "detail": "coset enumeration exhausted the bound of 10",
        "error": "enumeration",
        "exit": 2,
    }


# -- abelianize ---------------------------------------------------------


def test_abelianize_matches(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "abelianize", str(fixture_dir / "f2.json"), "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report == {
        "colimit_H1": {"rank": 0, "torsion": [2]},
        "group_abelianization": {"rank": 0, "torsion": [2]},
        "match": True,
    }


def test_abelianize_mismatch_reports_on_stderr(fixture_dir, capsys, clean_env, monkeypatch):
    monkeypatch.setattr("stabpres.cli.colimit_H1", lambda A, Q: AbelianInvariants(1, ()))
    path = str(fixture_dir / "f2.json")
    code, out, err = run(capsys, "abelianize", path)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["group abelianization: Z/2", "colimit H1: Z", "match: no"]
    code, out, err = run(capsys, "abelianize", path, "--format", "json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "colimit_H1": {"rank": 1, "torsion": []},
        "group_abelianization": {"rank": 0, "torsion": [2]},
        "match": False,
    }


def test_abelianize_requires_the_hypotheses(fixture_dir, capsys, clean_env):
    # f5's quotient is the projective plane, so the H1 identity does not
    # apply: abelianize names the failed hypothesis, as verify does
    path = str(fixture_dir / "f5.json")
    code, out, err = run(capsys, "abelianize", path)
    assert (code, out, err) == (1, "", "error (two_connected): pi1 has order 2\n")
    code, out, err = run(capsys, "abelianize", path, "--format", "json")
    assert (code, out) == (1, "")
    assert json.loads(err) == {"detail": "pi1 has order 2", "error": "two_connected", "exit": 1}


# -- homology -----------------------------------------------------------


def test_homology_of_complex_file(tmp_path, capsys, clean_env):
    path = tmp_path / "octahedron.json"
    path.write_text(json.dumps(octahedron_boundary().to_json_obj()))
    code, out, err = run(capsys, "homology", str(path), "-k", "2")
    assert code == 0 and out.strip() == "H_2 = Z"
    code, out, err = run(capsys, "homology", str(path), "-k", "1")
    assert code == 0 and out.strip() == "H_1 = 0"


def test_homology_of_action_file(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "homology", str(fixture_dir / "f5.json"), "-k", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"degree": 2, "invariants": {"rank": 1, "torsion": []}}


# -- plumbing -----------------------------------------------------------


def test_json_output_is_byte_deterministic(fixture_dir, capsys, clean_env):
    argv = ["express", str(fixture_dir / "f2.json"), "-g", "(1 2 3)", "--format", "json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("quotient",),
        ("present",),
        ("express", "-g", "(1 2)"),
        ("verify",),
        ("abelianize",),
    ],
    ids=lambda argv: argv[0],
)
def test_refined_commands_build_the_quotient_once(
    fixture_dir, capsys, clean_env, monkeypatch, argv
):
    # refinement's orbit-collision check builds the quotient the command uses
    import stabpres.actions
    import stabpres.cli

    calls = []
    real = stabpres.actions.build_quotient

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(stabpres.actions, "build_quotient", counted)
    monkeypatch.setattr(stabpres.cli, "build_quotient", counted)
    code, _, err = run(capsys, argv[0], str(fixture_dir / "f2.json"), *argv[1:])
    assert code == 0 and err == ""
    assert len(calls) == 1


def test_missing_file_is_malformed(capsys, clean_env):
    code, out, err = run(capsys, "verify", "/nonexistent/action.json")
    assert code == 3 and "malformed" in err


def test_bad_json_file_is_malformed(tmp_path, capsys, clean_env):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 3


def test_error_reports_are_json_when_requested(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "validate", str(fixture_dir / "f4.json"), "--format", "json"
    )
    assert code == 1 and out == ""
    obj = json.loads(err)
    assert obj["error"] == "rotation" and obj["exit"] == 1
    assert "rotates simplex {1,2,3}" in obj["detail"]


def test_verify_rejects_quotient_not_two_connected(fixture_dir, capsys, clean_env):
    # the antipodal quotient is the projective plane
    code, out, err = run(
        capsys, "verify", str(fixture_dir / "f5.json"), "--format", "json"
    )
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "detail": "pi1 has order 2",
        "error": "two_connected",
        "exit": 1,
    }


def test_verify_exhausted_pi1_is_a_resource_failure(fixture_dir, capsys, clean_env):
    code, out, err = run(
        capsys, "verify", str(fixture_dir / "f3.json"), "--max-cosets", "1", "--format", "json"
    )
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "detail": "pi1 enumeration exhausted 1 cosets",
        "error": "simply_connected",
        "exit": 2,
    }


def test_env_max_cosets(fixture_dir, capsys, monkeypatch):
    monkeypatch.setenv("STABPRES_MAX_COSETS", "10")
    code, out, err = run(capsys, "verify", str(fixture_dir / "f3.json"))
    assert code == 2
    assert "coset enumeration exhausted the bound of 10" in err
    monkeypatch.setenv("STABPRES_MAX_COSETS", "not-a-number")
    code, out, err = run(capsys, "verify", str(fixture_dir / "f1.json"))
    assert code == 3


def test_env_budget(fixture_dir, capsys, monkeypatch):
    monkeypatch.delenv("STABPRES_MAX_COSETS", raising=False)
    monkeypatch.setenv("STABPRES_BUDGET", "0")
    code, out, err = run(
        capsys, "express", str(fixture_dir / "f2.json"), "-g", "(1 2)"
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "f1", "--max-cosets", "-3"),
        ("verify", "f1", "--max-cosets", "0"),
        ("validate", "f1", "--max-cosets", "0"),
        ("express", "f1", "-g", "()", "--budget", "-1"),
        ("express", "f1", "-g", "(a b)", "--budget", "-1"),
    ],
    ids=" ".join,
)
def test_bound_below_minimum_is_malformed(fixture_dir, capsys, clean_env, argv):
    command, fixture, *extra = argv
    code, out, err = run(capsys, command, str(fixture_dir / f"{fixture}.json"), *extra)
    assert code == 3 and out == ""
    assert "must be at least" in err


@pytest.mark.parametrize(
    "env, value, argv",
    [
        ("STABPRES_MAX_COSETS", "0", ("verify", "f1")),
        ("STABPRES_MAX_COSETS", "-3", ("validate", "f1")),
        ("STABPRES_BUDGET", "-1", ("express", "f1", "-g", "()")),
    ],
)
def test_env_bound_below_minimum_is_malformed(fixture_dir, capsys, monkeypatch, env, value, argv):
    monkeypatch.delenv("STABPRES_MAX_COSETS", raising=False)
    monkeypatch.delenv("STABPRES_BUDGET", raising=False)
    monkeypatch.setenv(env, value)
    command, fixture, *extra = argv
    code, out, err = run(capsys, command, str(fixture_dir / f"{fixture}.json"), *extra)
    assert code == 3 and out == ""
    assert f"{env} must be at least" in err


@pytest.mark.parametrize("command", ["validate", "homology"])
@pytest.mark.parametrize(
    "part, simplex",
    [("edges", ["1", 2]), ("edges", [["1"], ["2"]]), ("triangles", ["1", "2", {"v": "3"}])],
    ids=["int-entry", "nested-list", "dict-in-triangle"],
)
def test_simplex_entries_must_be_strings(tmp_path, capsys, clean_env, command, part, simplex):
    # validate reads an action, homology a bare complex; both reach the
    # same complex check and report malformed input, not a traceback
    complex_obj = {
        "vertices": ["1", "2", "3"],
        "edges": [["1", "2"], ["1", "3"], ["2", "3"]],
        "triangles": [["1", "2", "3"]],
    }
    complex_obj[part][0] = simplex
    if command == "validate":
        obj, extra = {"complex": complex_obj, "generators": []}, ()
    else:
        obj, extra = complex_obj, ("-k", "1")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, command, str(path), *extra, "--format", "json")
    assert code == 3 and out == ""
    report = json.loads(err)
    assert report["error"] == "MalformedInput" and report["exit"] == 3
    assert "list of lists of strings" in report["detail"]


# -- byte-identical output ----------------------------------------------

# sha256 digests of the JSON reports (stdout, or stderr for the failing
# validate runs), pinned so that refactors can be checked for unchanged
# output mechanically.
_DIGESTS = [  # command, fixture, extra arguments, exit code, stream, sha256
    ("present", "f1", (), 0, "out", "2e79e87e80760752ba86459f0485a30a16b325eaaca2f2197848dafa2cbfaec6"),
    ("verify", "f1", (), 0, "out", "7b43c88fb00fd043b497fbfd8b9539cecac8f1e3ca48bd9a396d9e979b9aaa1f"),
    ("quotient", "f1", (), 0, "out", "1c728ed3ba2740e69d449239e94559dc76893050717b221df2a7b7064533f1b3"),
    ("abelianize", "f1", (), 0, "out", "3991ea18801ecd12d27e06337c067006707ba26b29e4d1a389dbff55e5e96e9b"),
    ("present", "f2", (), 0, "out", "9208e4f76ecca6670179b6b39ec27080e47f8383a79a8fb103ca62b42caec544"),
    ("verify", "f2", (), 0, "out", "ee4dd21c22c3a12f0b4d37f3d7433231cfb5d3e84d86f927bb47f535f83315b6"),
    ("quotient", "f2", (), 0, "out", "75d713ba7eb838dd082ce4ecab5facdb5b8497eb0e49b3cc750a5158cac25528"),
    ("abelianize", "f2", (), 0, "out", "3991ea18801ecd12d27e06337c067006707ba26b29e4d1a389dbff55e5e96e9b"),
    ("validate", "f4", (), 1, "err", "61bd74765549395388a4b8d3ebd86581ca845d76b99f47739842df0a11c5c0a1"),
    ("validate", "f5", (), 1, "err", "179a2cb040cc8ca2baa231a33f494d3679c73ec86104892462a3edf63e753fdb"),
    ("express", "f1", ("-g", "(a b)"), 0, "out", "b676dbe0b638d04c55e2d7f0bdb6abd4ae72b9153a166c6e508c7926eca95dd0"),
    ("express", "f2", ("-g", "(1 2)"), 0, "out", "9eeee08d7a9f7655a184c56b186bbe6043dcb69c5a3ca62752c93bbe685c6e3b"),
    ("express", "f3", ("-g", "(p1 p2 m1 m2)", "--seed", "0"), 0, "out", "c2434a7d0ed849db2bea2926228aad39dfcc184d733acd623f4717d85ecd00c9"),
    ("express", "f3", ("-g", "(p1 p2 m1 m2)", "--seed", "3"), 0, "out", "2a42ed0140d5201ad4d6fa5b90a6988165b5d4a9c700052b86bc88a90eec9d72"),
    ("verify", "f3", (), 0, "out", "1be2b442023cf8751c874b0f7ebf4dae9dc9d8da6bd68280988a4ecae9682f3c"),
    ("present", "f3", (), 0, "out", "16a5e8830dcf4bd987547bfc3091df586abcbe3fe1438c459382223f37c02c18"),
    ("quotient", "f3", (), 0, "out", "fdc4119d1cd3e1fe6d5af810f1e0723ffb1f16fe62ee37fa8409b66af2fe1794"),
    ("abelianize", "f3", (), 0, "out", "0b9884072d2ff34fff2c25ffefb71e13004f18cabe82ad04f196678de9861829"),
    ("homology", "f3", ("-k", "1"), 0, "out", "0edfc096733f0f5134a304449941bb398be0fe3b643a82156eb33241e8262e19"),
    ("homology", "f3", ("-k", "2"), 0, "out", "22c6e9e29aaef0073744e469dd6397db3768ae2efec019992958c1fa25b163e4"),
]


_TEXT_DIGESTS = [  # fixture, sha256 of `present --format text` stdout
    ("f1", "249e94c392f64d91a361f804718f1935cb6b634e2393380f5bdb9d22ca21ad37"),
    ("f2", "57994d38e567a1e5b8fe8f2b6a2e0f2e27201c22578bc9d9513aa5d82c304490"),
    ("f3", "c56d886cf86896f45c8f43e6ed94dde0702f4008a0e3aa048b7d83aecb8eac8c"),
]


@pytest.mark.parametrize("fixture, digest", _TEXT_DIGESTS)
def test_present_text_digest(fixture_dir, capsys, clean_env, fixture, digest):
    code, out, err = run(
        capsys, "present", str(fixture_dir / f"{fixture}.json"), "--format", "text"
    )
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _digest_id(row):
    command, fixture, _extra, exit_code, stream, digest = row
    return f"{command}-{fixture}-{exit_code}-{stream}-{digest}"


@pytest.mark.parametrize(
    "command, fixture, extra, exit_code, stream, digest", _DIGESTS, ids=map(_digest_id, _DIGESTS)
)
def test_json_output_digest(
    fixture_dir, capsys, clean_env, command, fixture, extra, exit_code, stream, digest
):
    code, out, err = run(
        capsys, command, str(fixture_dir / f"{fixture}.json"), *extra, "--format", "json"
    )
    reported, silent = (out, err) if stream == "out" else (err, out)
    assert code == exit_code and silent == ""
    assert hashlib.sha256(reported.encode()).hexdigest() == digest
