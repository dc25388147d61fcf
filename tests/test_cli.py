"""End-to-end command tests pinned by golden stdout files.

Each golden case fixes an argv vector, optional stdin payload, expected
exit code, and the exact bytes on stdout.  Set ORTHGEN_REGEN=1 to rewrite
the golden inputs and outputs after an intentional format change.
"""

import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import orthgen
from orthgen import cli
from orthgen.cli import main
from orthgen.decompose import HorrocksInstance
from orthgen.errors import JSONFormatError
from orthgen.generators import GenLabel, Word, eval_word, gen_F, perm_matrix, random_word
from orthgen.quadratic_space import FormContext, Matrix, one_perp
from orthgen.rings import (
    LaurentRing,
    ModularRing,
    PolynomialRing,
    PrimeField,
    RationalField,
    Scalar,
    TruncatedRing,
    canonical_json,
    laurent_of_poly,
    variable,
)

from sampling import matrix, scalar

QQ = RationalField()
F5 = PrimeField(5)
F7 = PrimeField(7)
Z9 = ModularRing(3, 2)
PQ = PolynomialRing(QQ)
LQ = LaurentRing(QQ)
CTX3 = FormContext(3)

GOLDEN = Path(__file__).parent / "golden"

_POLY_X = canonical_json(PQ.to_json(PQ.make([0, 1])))


def run_cli(argv, stdin_text=None):
    out = io.StringIO()
    old_stdout, old_stdin = sys.stdout, sys.stdin
    sys.stdout = out
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(list(argv))
    finally:
        sys.stdout, sys.stdin = old_stdout, old_stdin
    return code, out.getvalue()


def _closed_form_to():
    a, b, c, p, q, r = 1, 2, 3, 5, 7, 11
    rows = [
        [1, a, b, b * q + a * p - a * c * q, b * r + c * q - p, -a * r - q],
        [0, 1, c, p, c * r, -r],
        [0, 0, 1, q, r, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, -a, 1, 0],
        [0, 0, 0, a * c - b, -c, 1],
    ]
    return one_perp(Matrix(QQ, [[Fraction(x) for x in row] for row in rows]))


def _tmt_input():
    rng = random.Random(7)
    word = random_word(CTX3, F5, rng, 12)
    return eval_word(word) @ perm_matrix(CTX3, F5, (1, 2, 4, 3, 5, 7, 6))


def _local_input():
    m = gen_F(CTX3, "F1", 1, None, scalar(Z9, 3))
    m = m @ gen_F(CTX3, "F3", 1, 2, scalar(Z9, 4))
    return m @ gen_F(CTX3, "F2", 2, None, scalar(Z9, 7))


def _local_trunc_input():
    word = random_word(CTX3, TruncatedRing(PrimeField(3), 3), random.Random(5), 12)
    return eval_word(word)


def _horrocks_input():
    x_poly = variable(PQ)
    one_plus = Scalar(PQ, PQ.one) + x_poly
    alpha = gen_F(CTX3, "F1", 1, None, one_plus)
    beta = gen_F(CTX3, "F1", 1, None, variable(LQ).inv())
    wit = laurent_of_poly(one_plus) - variable(LQ).inv()
    witness = Word(CTX3, LQ, [GenLabel("F1", 1, None, wit)])
    return HorrocksInstance(alpha, beta, witness)


def _horrocks_with_letter(**fields):
    obj = json.loads(canonical_json(_horrocks_input().to_json()))
    letter = obj["witness"]["letters"][0]
    for key, value in fields.items():
        if value is None:
            del letter[key]
        else:
            letter[key] = value
    return canonical_json(obj)


def _orth_bad():
    m = Matrix.identity(QQ, 7)
    m.rows[0][1] = QQ.one
    return m


_INPUTS = {
    "verify_orth.in": lambda: canonical_json(
        gen_F(CTX3, "F2", 2, None, Scalar(QQ, Fraction(-1, 2))).to_json()),
    "verify_orth_bad.in": lambda: canonical_json(_orth_bad().to_json()),
    "verify_monomial.in": lambda: canonical_json(
        perm_matrix(CTX3, QQ, (1, 3, 2, 4, 6, 5, 7)).to_json()),
    "verify_congruent.in": lambda: canonical_json(
        gen_F(CTX3, "F1", 1, None, scalar(Z9, 3)).to_json()),
    "verify_nonsquare.in": lambda: json.dumps(
        {"ring": "Q", "dim": 2, "entries": [["1", "0", "0"], ["0", "1"]]}),
    "tmt_random.in": lambda: canonical_json(_tmt_input().to_json()),
    "tmt_monomial.in": lambda: canonical_json(
        perm_matrix(CTX3, F5, (1, 3, 2, 4, 6, 5, 7)).to_json()),
    "to_closed.in": lambda: canonical_json(_closed_form_to().to_json()),
    "local_word.in": lambda: canonical_json(_local_input().to_json()),
    "local_trunc.in": lambda: canonical_json(_local_trunc_input().to_json()),
    "unipotent_upper.in": lambda: canonical_json(
        matrix(QQ, [[1, 2, 3], [0, 1, 5], [0, 0, 1]]).to_json()),
    "alt_lower.in": lambda: canonical_json(
        matrix(F7, [[0, -4, -1], [4, 0, -6], [1, 6, 0]]).to_json()),
    "horrocks_accept.in": lambda: canonical_json(_horrocks_input().to_json()),
    "horrocks_perm_no_perm.in": lambda: _horrocks_with_letter(
        fam="PERM", i=None, z=None),
    "horrocks_index_str.in": lambda: _horrocks_with_letter(i="1"),
}

CASES = [
    ("gen_f1_zero",
     ["gen", "--fam", "F1", "--i", "1", "--z", "0", "--n", "3", "--ring", "Q"],
     None, 0),
    ("gen_f2_half",
     ["gen", "--fam", "F2", "--i", "1", "--z", "-1/2", "--n", "3", "--ring", "Q"],
     None, 0),
    ("gen_f3_q",
     ["gen", "--fam", "F3", "--i", "1", "--j", "2", "--z", "3", "--n", "3", "--ring", "Q"],
     None, 0),
    ("gen_f4_f5",
     ["gen", "--fam", "F4", "--i", "1", "--j", "3", "--z", "2", "--n", "4", "--ring", "Fp:5"],
     None, 0),
    ("gen_oe_f7",
     ["gen", "--fam", "OE", "--i", "1", "--j", "5", "--z", "4", "--n", "3", "--ring", "Fp:7"],
     None, 0),
    ("gen_poly_x",
     ["gen", "--fam", "F1", "--i", "2", "--z", _POLY_X, "--n", "3", "--ring", "poly:Q"],
     None, 0),
    ("gen_bad_ij",
     ["gen", "--fam", "F3", "--i", "1", "--j", "1", "--z", "2", "--n", "3", "--ring", "Q"],
     None, 2),
    ("verify_orth_ok",
     ["verify", "--what", "orthogonal"], "verify_orth.in", 0),
    ("verify_orth_no",
     ["verify", "--what", "orthogonal"], "verify_orth_bad.in", 1),
    ("verify_monomial",
     ["verify", "--what", "monomial"], "verify_monomial.in", 0),
    ("verify_congruent_z9",
     ["verify", "--what", "congruent", "--ideal", "max"], "verify_congruent.in", 0),
    ("verify_nonsquare",
     ["verify", "--what", "orthogonal"], "verify_nonsquare.in", 2),
    ("decompose_tmt_check",
     ["decompose", "--mode", "tmt", "--check"], "tmt_random.in", 0),
    ("decompose_tmt_monomial",
     ["decompose", "--mode", "tmt"], "tmt_monomial.in", 0),
    ("decompose_to_closed",
     ["decompose", "--mode", "to", "--check"], "to_closed.in", 0),
    ("decompose_local_z9",
     ["decompose", "--mode", "local", "--check"], "local_word.in", 0),
    ("factor_unipotent_upper",
     ["factor", "--mode", "unipotent", "--upper", "--check"], "unipotent_upper.in", 0),
    ("factor_alt_lower",
     ["factor", "--mode", "alt", "--lower", "--check"], "alt_lower.in", 0),
    ("identities_pair",
     ["identities", "--items", "D2.7.comm,T4.2", "--seed", "11", "--samples", "5"],
     None, 0),
    ("check_horrocks_accept",
     ["check-horrocks"], "horrocks_accept.in", 0),
]

# Malformed input: exit 2 with nothing on stdout.
REJECT_CASES = [
    ("check_horrocks_perm_no_perm",
     ["check-horrocks"], "horrocks_perm_no_perm.in", 2),
    ("check_horrocks_index_str",
     ["check-horrocks"], "horrocks_index_str.in", 2),
    ("identities_zero_samples",
     ["identities", "--all", "--samples", "0"], None, 2),
]

# The local step over a truncated polynomial ring: the one pinned run of trunc.
TRUNC_CASES = [
    ("decompose_local_trunc",
     ["decompose", "--mode", "local", "--check"], "local_trunc.in", 0),
]


def _regen_requested():
    return bool(os.environ.get("ORTHGEN_REGEN"))


def _stdin_for(name):
    if name is None:
        return None
    path = GOLDEN / name
    if _regen_requested():
        path.write_text(_INPUTS[name]() + "\n", encoding="utf-8")
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv,stdin_name,expect_code", CASES + REJECT_CASES + TRUNC_CASES,
                         ids=[case[0] for case in CASES + REJECT_CASES + TRUNC_CASES])
def test_golden(name, argv, stdin_name, expect_code):
    code, out = run_cli(argv, _stdin_for(stdin_name))
    path = GOLDEN / f"{name}.out"
    if _regen_requested():
        path.write_text(out, encoding="utf-8")
    assert code == expect_code
    assert out == path.read_text(encoding="utf-8")


def test_golden_case_count_is_twenty():
    assert len(CASES) == 20
    assert len({case[0] for case in CASES}) == 20


# --- exit-code contract beyond the goldens -------------------------------------


def test_help_exits_zero_and_unknown_verb_exits_two(capsys):
    assert run_cli(["--help"])[0] == 0
    assert run_cli(["nonsense"])[0] == 2
    assert run_cli([])[0] == 2
    capsys.readouterr()


def test_gen_rejects_out_of_range_and_bad_ring():
    assert run_cli(["gen", "--fam", "F1", "--i", "9", "--z", "1", "--n", "3",
                    "--ring", "Q"])[0] == 2
    assert run_cli(["gen", "--fam", "F1", "--i", "1", "--z", "1", "--n", "3",
                    "--ring", "Zpk:4:2"])[0] == 2
    assert run_cli(["gen", "--fam", "F1", "--i", "1", "--j", "2", "--z", "1",
                    "--n", "3", "--ring", "Q"])[0] == 2
    assert run_cli(["gen", "--fam", "OE", "--i", "1", "--z", "1", "--n", "3",
                    "--ring", "Q"])[0] == 2


@pytest.mark.parametrize("z", ["1e5000", "1e10000000", "0.5", "+3", "1e3", "1/0"])
def test_gen_reads_rationals_in_the_json_grammar_only(z, capsys):
    # Decimal and exponent forms are refused before any expansion; a huge
    # exponent once ran for seconds and then crashed while writing stdout.
    started = time.perf_counter()
    code, out = run_cli(["gen", "--fam", "F3", "--i", "1", "--j", "2", "--z", z,
                         "--n", "3", "--ring", "Q"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")
    assert time.perf_counter() - started < 1.0


def test_a_result_too_large_to_print_exits_two(capsys):
    # z has 3000 digits, so the F1 entry z^2/2 has about 6000: more than
    # Python will turn into a string.  It once escaped as a traceback.
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(["gen", "--fam", "F1", "--i", "1", "--z", "9" * 3000,
                         "--n", "3", "--ring", "Q"])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err == f"error: rational with more than {limit} digits is outside the JSON format\n"


def test_decompose_serializes_outside_its_exit_one_branch(monkeypatch, capsys):
    def unprintable(word):
        raise JSONFormatError("too many digits")

    monkeypatch.setattr(Word, "to_text", unprintable)
    block = canonical_json(matrix(QQ, [[1, 2], [0, 1]]).to_json())
    assert run_cli(["factor", "--mode", "unipotent", "--check"], block) == (2, "")
    assert capsys.readouterr().err == "error: too many digits\n"


def test_a_value_error_in_a_verb_exits_two_at_the_one_boundary(monkeypatch, capsys):
    # main catches what no verb maps to exit 1; this once escaped as a traceback.
    def broken(m, ctx):
        raise ValueError("broken elimination")

    monkeypatch.setattr(cli, "tmt_decompose", broken)
    identity = canonical_json(Matrix.identity(F5, 7).to_json())
    assert run_cli(["decompose", "--mode", "tmt"], identity) == (2, "")
    assert capsys.readouterr().err == "error: broken elimination\n"


@pytest.mark.parametrize("ring, z", [("Fp:1_3", "1"), ("F\u0663", "1"), ("Fp:5", "1_3"), ("Q", "\u0663")])
def test_gen_reads_integers_in_ascii_digits_only(ring, z, capsys):
    code, out = run_cli(["gen", "--fam", "F1", "--i", "1", "--z", z, "--n", "3", "--ring", ring])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


_GEN_F1 = ["gen", "--fam", "F1", "--i", "1", "--z", "1", "--ring", "Fp:5"]
_T42 = ["identities", "--items", "T4.2"]


@pytest.mark.parametrize("argv", [
    _GEN_F1 + ["--n", "\u0663"],
    _GEN_F1 + ["--n", "+3"],
    _GEN_F1 + ["--n", "3_0"],
    ["gen", "--fam", "F3", "--i", "1", "--j", "\u0662", "--z", "1", "--n", "3", "--ring", "Q"],
    ["gen", "--fam", "F1", "--i", "0_1", "--z", "1", "--n", "3", "--ring", "Q"],
    _T42 + ["--samples", "1", "--seed", "4_2"],
    _T42 + ["--samples", "\u0661"],
], ids=["n-arabic", "n-plus", "n-underscore", "j-arabic", "i-underscore", "seed", "samples"])
def test_integer_flags_read_ascii_digits_only(argv, capsys):
    assert run_cli(argv) == (2, "")
    assert "invalid int value" in capsys.readouterr().err


def test_decompose_domain_failures_exit_one(capsys):
    bad = canonical_json(_orth_bad().to_json())
    assert run_cli(["decompose", "--mode", "tmt"], bad)[0] == 1
    capsys.readouterr()
    # passes the elimination and fails only the core's certificate
    swapped = Matrix.identity(F5, 7)
    swapped.rows[1], swapped.rows[2] = swapped.rows[2], swapped.rows[1]
    assert run_cli(["decompose", "--mode", "tmt"], canonical_json(swapped.to_json())) == (1, "")
    assert capsys.readouterr().err == "error: input does not preserve the form\n"
    even = canonical_json(Matrix.identity(F5, 6).to_json())
    assert run_cli(["decompose", "--mode", "tmt"], even)[0] == 1
    not_uni = canonical_json(matrix(QQ, [[1, 2], [3, 1]]).to_json())
    assert run_cli(["factor", "--mode", "unipotent"], not_uni)[0] == 1
    not_alt = canonical_json(matrix(QQ, [[1, 0], [0, 1]]).to_json())
    assert run_cli(["factor", "--mode", "alt"], not_alt)[0] == 1


_ONE_BY_ONE = canonical_json(Matrix.identity(F5, 1).to_json())


@pytest.mark.parametrize("what, detail", [("monomial", [1]),
                                          ("congruent", "congruent to the identity mod max")])
def test_verify_answers_on_a_one_by_one_matrix(what, detail):
    # Only --what orthogonal needs a form; the others once failed on its rank 0.
    code, out = run_cli(["verify", "--what", what], _ONE_BY_ONE)
    assert (code, json.loads(out)) == (0, {"detail": detail, "ok": True})


@pytest.mark.parametrize("argv", [["decompose", "--mode", "tmt"], ["decompose", "--mode", "local"],
                                  ["factor", "--mode", "to"]])
def test_a_one_by_one_split_names_its_dimension(argv, capsys):
    assert run_cli(argv, _ONE_BY_ONE) == (1, "")
    assert capsys.readouterr().err == "error: no odd split space has dimension 1\n"


def test_decompose_parse_failures_exit_two(tmp_path):
    assert run_cli(["decompose", "--mode", "tmt"], "not json")[0] == 2
    assert run_cli(["decompose", "--mode", "tmt", "--file",
                    str(tmp_path / "missing.json")])[0] == 2
    assert run_cli(["factor", "--mode", "tmt"], "{}")[0] == 2
    assert run_cli(["decompose", "--mode", "tmt", "--upper", "--lower"], "{}")[0] == 2


def test_file_flag_reads_from_disk(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(canonical_json(
        perm_matrix(CTX3, QQ, (1, 3, 2, 4, 6, 5, 7)).to_json()))
    code, out = run_cli(["verify", "--what", "monomial", "--file", str(path)])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_rejects_a_huge_modulus_with_exit_two():
    blob = json.dumps({"ring": "Zpk:3:1000000000", "dim": 1, "entries": [[{"mod": 3, "val": 1}]]})
    assert run_cli(["verify", "--what", "orthogonal"], blob) == (2, "")


def test_check_horrocks_refuses_a_huge_laurent_offset(capsys):
    blob = json.loads((GOLDEN / "horrocks_accept.in").read_text(encoding="utf-8"))
    for offset in (10**40, -(10**40), 4097):
        blob["beta"]["entries"][0][4]["offset"] = offset
        assert run_cli(["check-horrocks"], json.dumps(blob)) == (2, "")
        err = capsys.readouterr().err
        assert "exceeds the ceiling 4096" in err and "Traceback" not in err
    blob["beta"]["entries"][0][4]["offset"] = -1
    assert run_cli(["check-horrocks"], json.dumps(blob))[0] == 0
    capsys.readouterr()


def _run_module(argv, stdin_text=None):
    env = dict(os.environ)
    src = str(Path(orthgen.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "orthgen.cli", *argv], input=stdin_text,
                          capture_output=True, text=True, env=env, timeout=120)


def test_module_entry_point_runs_the_cli():
    argv = next(case[1] for case in CASES if case[0] == "gen_f3_q")
    proc = _run_module(argv)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "gen_f3_q.out").read_text(encoding="utf-8")
    proc = _run_module(["gen", "--bogus"])
    assert proc.returncode == 2 and proc.stdout == ""


def test_one_parser_serves_every_call_like_a_fresh_process(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    golden = next(case for case in CASES if case[0] == "decompose_tmt_check")
    calls = [(["decompose", "--mode", "tmt", "--bogus"], None),
             (golden[1], _stdin_for(golden[2])),
             (["--help"], None)]
    capsys.readouterr()
    codes = []
    for argv, stdin_text in calls:
        code, out = run_cli(argv, stdin_text)
        err = capsys.readouterr().err
        fresh = _run_module(argv, stdin_text)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [2, 0, 0]
    assert cli._build_parser() is cli._build_parser()


def test_verify_congruent_fails_with_exit_one():
    blob = canonical_json(gen_F(CTX3, "F1", 1, None, scalar(Z9, 1)).to_json())
    code, out = run_cli(["verify", "--what", "congruent", "--ideal", "max"], blob)
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_identities_unknown_item_exits_two():
    assert run_cli(["identities", "--items", "NOPE"])[0] == 2
    assert run_cli(["identities", "--items", ""])[0] == 2


def test_identities_rejects_vacuous_sample_counts(capsys):
    for samples in ("0", "-1"):
        code, out = run_cli(["identities", "--all", "--samples", samples])
        assert code == 2 and out == ""
    assert "--samples must be at least 1" in capsys.readouterr().err


def test_deeply_nested_payload_exits_two():
    deep = "[" * 100000 + "]" * 100000
    for argv in (["check-horrocks"], ["decompose", "--mode", "tmt"],
                 ["verify", "--what", "monomial"]):
        assert run_cli(argv, deep) == (2, "")


def test_identities_seed_resolution(monkeypatch, capsys):
    monkeypatch.delenv("ORTHGEN_SEED", raising=False)
    code, out = run_cli(["identities", "--items", "T4.2", "--samples", "1"])
    assert code == 0 and json.loads(out)["seed"] == 42
    monkeypatch.setenv("ORTHGEN_SEED", "7")
    code, out = run_cli(["identities", "--items", "T4.2", "--samples", "1"])
    assert code == 0 and json.loads(out)["seed"] == 7
    code, out = run_cli(["identities", "--items", "T4.2", "--samples", "1",
                         "--seed", "3"])
    assert code == 0 and json.loads(out)["seed"] == 3
    monkeypatch.setenv("ORTHGEN_SEED", "boom")
    assert run_cli(["identities", "--items", "T4.2", "--samples", "1"])[0] == 2
    # ASCII digits only, as in the ring grammar; surrounding spaces are stripped.
    for raw in ("4_2", "\u0664\u0662", "+42"):
        monkeypatch.setenv("ORTHGEN_SEED", raw)
        capsys.readouterr()
        assert run_cli(["identities", "--items", "T4.2", "--samples", "1"]) == (2, "")
        assert capsys.readouterr().err == f"error: ORTHGEN_SEED must be an integer, got {raw!r}\n"
    monkeypatch.setenv("ORTHGEN_SEED", " 7 ")
    code, out = run_cli(["identities", "--items", "T4.2", "--samples", "1"])
    assert code == 0 and json.loads(out)["seed"] == 7
    code, out = run_cli(["identities", "--items", "T4.2", "--samples", "1", "--seed", " 3 "])
    assert code == 0 and json.loads(out)["seed"] == 3


def test_identities_failure_exits_one(monkeypatch):
    import orthgen.generators as generators
    broken = {fam: list(terms) for fam, terms in generators._F_TERMS.items()}
    row, col, coeff, power = broken["F1"][0]
    broken["F1"][0] = (row, col, -coeff, power)
    monkeypatch.setattr(generators, "_F_TERMS",
                        {fam: tuple(t) for fam, t in broken.items()})
    code, out = run_cli(["identities", "--items", "D2.7.comm", "--samples", "2"])
    assert code == 1
    assert json.loads(out)["items"][0]["failures"]


def test_check_horrocks_reject_exits_one():
    obj = json.loads(canonical_json(_horrocks_input().to_json()))
    obj["witness"]["letters"][0]["z"] = json.loads(canonical_json(LQ.to_json(LQ.one)))
    code, out = run_cli(["check-horrocks"], canonical_json(obj))
    assert code == 1
    assert json.loads(out)["quotient_elementary"] is False
    assert run_cli(["check-horrocks"], '{"alpha": 3}')[0] == 2


def test_emitted_json_is_canonical():
    for name, argv, stdin_name, expect_code in CASES:
        if expect_code != 0:
            continue
        code, out = run_cli(argv, _stdin_for(stdin_name))
        assert code == 0
        assert out == canonical_json(json.loads(out)) + "\n"


def test_gen_output_parses_back_to_equal_matrix():
    code, out = run_cli(["gen", "--fam", "F2", "--i", "1", "--z", "-1/2",
                         "--n", "3", "--ring", "Q"])
    assert code == 0
    m = Matrix.from_json(json.loads(out))
    assert m == gen_F(CTX3, "F2", 1, None, Scalar(QQ, Fraction(-1, 2)))
