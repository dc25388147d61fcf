"""Acceptance gate: nine end-to-end criteria, one verdict line each.

Every check is exact equality over the exact scalar types; there are no
tolerances anywhere.  Each test prints "criterion k: PASS/FAIL - label"
on the real stdout, so a full run reads as one line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from orthgen.decompose import (
    HorrocksInstance,
    check_horrocks_instance,
    factor_alt,
    factor_to,
    factor_unipotent,
    local_decompose,
    theta_conjugate,
    tmt_decompose,
)
from orthgen.generators import (
    GenLabel,
    Word,
    diag_orthogonal,
    eval_word,
    gen_F,
    gen_oe,
    perm_matrix,
    random_word,
)
from orthgen.identity_suite import run_suite
from orthgen.quadratic_space import (
    FormContext,
    Matrix,
    Vector,
    is_orthogonal,
    matrices_congruent,
    monomial_pattern,
    one_perp,
    unitriangular_inverse,
)
from orthgen.rings import (
    IdealDescriptor,
    LaurentRing,
    ModularRing,
    PolynomialRing,
    PrimeField,
    RationalField,
    Scalar,
    laurent_of_poly,
    ring_from_string,
    variable,
)
from orthgen.transvections import TransvectionSpec, transvection_matrix

from sampling import random_perm

QQ = RationalField()
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
Z9 = ModularRing(3, 2)
Z25 = ModularRing(5, 2)
PQ = PolynomialRing(QQ)
LQ = LaurentRing(QQ)
CTX3 = FormContext(3)

SCALAR_RINGS = (QQ, F3, F5, F7, Z9, Z25)


def _report(capsys, k, label, problems):
    verdict = "PASS" if not problems else "FAIL"
    with capsys.disabled():
        print(f"criterion {k}: {verdict} - {label}")
    assert not problems, problems[:5]


def _rand_scalar(ring, rng):
    return Scalar(ring, ring.sample(rng))


def _random_monomial(ctx, ring, rng):
    sig = perm_matrix(ctx, ring, random_perm(ctx, rng))
    d0 = Scalar(ring, ring.from_int(rng.choice((1, -1))))
    d = [Scalar(ring, ring.sample_unit(rng)) for _ in range(ctx.n)]
    return sig @ diag_orthogonal(ctx, d0, d)


def _random_unitriangular(ring, n, upper, rng):
    m = Matrix.identity(ring, n)
    for i in range(n):
        for j in range(n):
            if (j > i) if upper else (j < i):
                m.rows[i][j] = ring.sample(rng)
    return m


def _random_alternating(ring, n, rng):
    m = Matrix.zeros(ring, n)
    for i in range(n):
        for j in range(i + 1, n):
            x = ring.sample(rng)
            m.rows[i][j] = x
            m.rows[j][i] = ring.neg(x)
    return m


def _embed_block_diag(gamma, ctx):
    n = ctx.n
    m = Matrix.identity(gamma.ring, ctx.dim)
    inv = unitriangular_inverse(gamma.transpose())
    for i in range(n):
        for j in range(n):
            m.rows[1 + i][1 + j] = gamma.rows[i][j]
            m.rows[1 + n + i][1 + n + j] = inv.rows[i][j]
    return m


def _embed_block_alt(a, upper, ctx):
    n = ctx.n
    m = Matrix.identity(a.ring, ctx.dim)
    for i in range(n):
        for j in range(n):
            if upper:
                m.rows[1 + i][1 + n + j] = a.rows[i][j]
            else:
                m.rows[1 + n + i][1 + j] = a.rows[i][j]
    return m


def _even_word(base, rng, n=3, length=5):
    ctx = FormContext(n, odd=False)
    letters = []
    for _ in range(length):
        i = rng.randrange(1, 2 * n + 1)
        while True:
            j = rng.randrange(1, 2 * n + 1)
            dual = i + n if i <= n else i - n
            if j != i and j != dual:
                break
        letters.append(GenLabel("OE", i, j, _rand_scalar(base, rng)))
    return Word(ctx, base, letters)


def test_criterion_1_identity_suite(capsys):
    start = time.perf_counter()
    rep = run_suite("all", 42, 100)
    elapsed = time.perf_counter() - start
    problems = [
        f"{item['id']}: {len(item['failures'])} failures"
        for item in rep.to_json()["items"]
        if item["failures"]
    ]
    if elapsed >= 300.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 300s")
    _report(capsys, 1, "identity suite at seed 42, 100 samples per item", problems)


def test_criterion_2_generator_orthogonality(capsys):
    rng = random.Random(20260802)
    problems = []
    cases = []
    for fam in ("F1", "F2", "F3", "F4", "F5"):
        cases.extend(("F", fam) for _ in range(70))
    cases.extend(("oe", None) for _ in range(50))
    cases.extend(("perm", None) for _ in range(40))
    cases.extend(("diag", None) for _ in range(30))
    cases.extend(("theta", None) for _ in range(30))
    assert len(cases) == 500
    for kind, fam in cases:
        ring = SCALAR_RINGS[rng.randrange(len(SCALAR_RINGS))]
        n = rng.randrange(2, 6)
        ctx = FormContext(n)
        if kind == "F":
            i = rng.randrange(1, n + 1)
            j = None
            if fam not in ("F1", "F2"):
                j = rng.randrange(1, n + 1)
                while j == i:
                    j = rng.randrange(1, n + 1)
            m = gen_F(ctx, fam, i, j, _rand_scalar(ring, rng))
        elif kind == "oe":
            ectx = FormContext(n, odd=False)
            i = rng.randrange(1, 2 * n + 1)
            while True:
                j = rng.randrange(1, 2 * n + 1)
                dual = i + n if i <= n else i - n
                if j != i and j != dual:
                    break
            m = one_perp(gen_oe(ectx, i, j, _rand_scalar(ring, rng)))
        elif kind == "perm":
            m = perm_matrix(ctx, ring, random_perm(ctx, rng))
        elif kind == "diag":
            d0 = Scalar(ring, ring.from_int(rng.choice((1, -1))))
            d = [Scalar(ring, ring.sample_unit(rng)) for _ in range(n)]
            m = diag_orthogonal(ctx, d0, d)
        else:
            base = QQ if rng.randrange(2) else F5
            P = PolynomialRing(base)
            word = _even_word(base, rng, n=3)
            frame = one_perp(eval_word(word))
            s = rng.randrange(1, 7)
            dual = s + 3 if s <= 3 else s - 3
            while True:
                t = rng.randrange(1, 7)
                if t != s and t != dual:
                    break
            cols = {}
            for col in (s, t):
                cols[col] = Vector(P, [P.make([frame.rows[r][col]]) for r in range(7)])
            x = variable(P) * _rand_scalar(P, rng)
            spec = TransvectionSpec(CTX3, cols[s], cols[t], x)
            m, _ = theta_conjugate(transvection_matrix(spec), 1 if rng.randrange(2) else -1, CTX3)
            ctx = CTX3
        if not is_orthogonal(m, ctx):
            problems.append(f"{kind}/{fam} over {ring.descriptor} at n={n}")
    _report(capsys, 2, "500 random generator instances preserve the form", problems)


def test_criterion_3_closed_form_factorizations(capsys):
    problems = []
    a, b, c, p, q, r = 1, 2, 3, 5, 7, 11

    rows = [
        [1, a, b, b * q + a * p - a * c * q, b * r + c * q - p, -a * r - q],
        [0, 1, c, p, c * r, -r],
        [0, 0, 1, q, r, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, -a, 1, 0],
        [0, 0, 0, a * c - b, -c, 1],
    ]
    upper = one_perp(Matrix(QQ, [[Fraction(x) for x in row] for row in rows]))
    word = factor_to(upper, CTX3)
    if eval_word(word) != upper:
        problems.append("upper closed form does not round-trip")
    if len(word.letters) != 6 or {l.family for l in word.letters} != {"F3", "F4"}:
        problems.append("upper word shape is wrong")

    gamma = Matrix(QQ, [[Fraction(x) for x in row]
                        for row in [[1, 0, 0], [a, 1, 0], [b, c, 1]]])
    dg = Matrix(QQ, [[Fraction(x) for x in row]
                     for row in [[0, -c * q + p, q], [c * q - p, 0, r], [-q, -r, 0]]])
    lower = _embed_block_alt(dg, False, CTX3) @ _embed_block_diag(gamma, CTX3)
    word = factor_to(lower, CTX3)
    if eval_word(word) != lower:
        problems.append("lower closed form does not round-trip")
    fams = [(l.family, l.i, l.j) for l in word.letters]
    if fams != [("F5", 1, 2), ("F5", 1, 3), ("F5", 2, 3),
                ("F3", 2, 1), ("F3", 3, 1), ("F3", 3, 2)]:
        problems.append(f"lower word letters are {fams}")
    _report(capsys, 3, "triangular closed forms at (1,2,3,5,7,11) round-trip",
            problems)


def test_criterion_4_block_words_recompose(capsys):
    rng = random.Random(20260804)
    problems = []
    for ring in SCALAR_RINGS:
        for _ in range(100):
            n = rng.randrange(2, 6)
            ctx = FormContext(n)
            upper = bool(rng.randrange(2))
            a = _random_alternating(ring, n, rng)
            if eval_word(factor_alt(a, upper, ctx)) != _embed_block_alt(a, upper, ctx):
                problems.append(f"alternating over {ring.descriptor} n={n}")
            gamma = _random_unitriangular(ring, n, upper, rng)
            if eval_word(factor_unipotent(gamma, upper, ctx)) != _embed_block_diag(gamma, ctx):
                problems.append(f"unipotent over {ring.descriptor} n={n}")
    _report(capsys, 4, "1200 alternating and unipotent blocks recompose",
            problems)


def _to_letter_ok(letter, ring):
    if letter.family in ("F1", "F3", "F4"):
        return True
    return letter.family == "F2" and letter.param.payload == ring.half


def test_criterion_5_triangular_monomial_triangular(capsys):
    rng = random.Random(20260805)
    problems = []
    for ring, n in ((F5, 3), (F3, 4)):
        ctx = FormContext(n)
        for _ in range(200):
            word = random_word(ctx, ring, rng, rng.randrange(0, 41))
            m = eval_word(word) @ _random_monomial(ctx, ring, rng)
            start = time.perf_counter()
            dec = tmt_decompose(m, ctx)
            took = time.perf_counter() - start
            if took >= 1.0:
                problems.append(f"slow instance: {took:.2f}s over {ring.descriptor}")
            if dec.recompose() != m:
                problems.append(f"recomposition failed over {ring.descriptor}")
            monomial_pattern(dec.mu)
            for letter in list(dec.tau1.letters) + list(dec.tau2.letters):
                if not _to_letter_ok(letter, ring):
                    problems.append(f"non-triangular letter {letter.family}")
    _report(capsys, 5,
            "400 elements of O7(F5) and O9(F3) split as word * monomial * word",
            problems)


def test_criterion_6_local_residuals(capsys):
    rng = random.Random(20260806)
    problems = []
    ideal = IdealDescriptor("max")
    for ring in (Z9, Z25, ring_from_string("trunc:F3:3")):
        for _ in range(100):
            word = random_word(CTX3, ring, rng, rng.randrange(0, 26))
            alpha = eval_word(word) @ _random_monomial(CTX3, ring, rng)
            dec = local_decompose(alpha, CTX3)
            if dec.recompose() != alpha:
                problems.append(f"recomposition failed over {ring.descriptor}")
            if not is_orthogonal(dec.residual, CTX3):
                problems.append(f"residual not orthogonal over {ring.descriptor}")
            if not matrices_congruent(
                    dec.residual, Matrix.identity(ring, CTX3.dim), ideal):
                problems.append(f"residual not congruent to 1 over {ring.descriptor}")
    _report(capsys, 6, "300 local elements leave orthogonal residuals = 1 mod max",
            problems)


def test_criterion_7_theta_polynomiality(capsys):
    rng = random.Random(20260807)
    problems = []
    for base in (QQ, F5):
        P = PolynomialRing(base)
        L = LaurentRing(base)
        x_l = variable(L)
        for _ in range(50):
            frame = one_perp(eval_word(_even_word(base, rng, n=3)))
            s = rng.randrange(1, 7)
            dual = s + 3 if s <= 3 else s - 3
            while True:
                t = rng.randrange(1, 7)
                if t != s and t != dual:
                    break

            def col(ring, j, scale_u=None):
                comps = [
                    Scalar(ring, ring.make([frame.rows[r][j]]))
                    if ring is P
                    else Scalar(ring, ring.make(0, [frame.rows[r][j]]))
                    for r in range(7)
                ]
                if scale_u is not None:
                    comps[1:4] = [scale_u * cc for cc in comps[1:4]]
                return Vector(ring, [c.payload for c in comps])

            f = _rand_scalar(P, rng)
            spec = TransvectionSpec(CTX3, col(P, s), col(P, t), variable(P) * f)
            conj, polynomial = theta_conjugate(transvection_matrix(spec), 1, CTX3)
            if not polynomial:
                problems.append(f"entries not polynomial over {base.descriptor}")
            expected = transvection_matrix(
                TransvectionSpec(CTX3, col(L, s, x_l), col(L, t, x_l), laurent_of_poly(f)))
            if conj != expected:
                problems.append(f"conjugate mismatch over {base.descriptor}")
    rep = run_suite(["L5.4"], 20260807, 30)
    for item in rep.to_json()["items"]:
        if item["failures"]:
            problems.append(f"correction-factor item: {len(item['failures'])} failures")
    _report(capsys, 7,
            "100 scaled transvections conjugate polynomially; correction factor holds",
            problems)


def _horrocks_positive(rng, k):
    word = random_word(CTX3, PQ, rng, rng.randrange(1, 8))
    alpha = eval_word(word)
    laurent_letters = [
        GenLabel(l.family, l.i, l.j, laurent_of_poly(l.param), l.exp)
        for l in word.letters
    ]
    if k % 2 == 0:
        beta = Matrix.identity(LQ, CTX3.dim)
        witness = Word(CTX3, LQ, laurent_letters)
        claim = (Matrix.identity(QQ, CTX3.dim), word)
        return HorrocksInstance(alpha, beta, witness, claim=claim)
    const_letters = []
    for _ in range(rng.randrange(1, 4)):
        fam = ("F1", "F3")[rng.randrange(2)]
        i = rng.randrange(1, 4)
        j = None
        if fam == "F3":
            j = rng.randrange(1, 4)
            while j == i:
                j = rng.randrange(1, 4)
        const_letters.append(
            GenLabel(fam, i, j, Scalar(LQ, LQ.make(0, [QQ.sample(rng)]))))
    beta = eval_word(Word(CTX3, LQ, const_letters))
    witness = Word(CTX3, LQ,
                   laurent_letters + [l.inverse() for l in reversed(const_letters)])
    return HorrocksInstance(alpha, beta, witness)


def test_criterion_8_horrocks_checker(capsys):
    rng = random.Random(20260808)
    problems = []
    for k in range(50):
        inst = _horrocks_positive(rng, k)
        if not check_horrocks_instance(inst)["accepted"]:
            problems.append(f"positive instance {k} rejected")
        letters = list(inst.witness.letters)
        pos = rng.randrange(len(letters))
        hit = letters[pos]
        letters[pos] = GenLabel(hit.family, hit.i, hit.j,
                                hit.param + Scalar(LQ, LQ.one), hit.exp)
        mutant = HorrocksInstance(inst.alpha, inst.beta,
                                  Word(CTX3, LQ, letters), claim=inst.claim)
        if check_horrocks_instance(mutant)["accepted"]:
            problems.append(f"mutant instance {k} accepted")
    _report(capsys, 8, "50 splitting certificates accept, 50 mutants reject",
            problems)


def test_criterion_9_cli_golden_determinism(capsys):
    import test_cli

    problems = []
    for name, argv, stdin_name, expect_code in test_cli.CASES:
        stdin_text = test_cli._stdin_for(stdin_name)
        golden = (test_cli.GOLDEN / f"{name}.out").read_text(encoding="utf-8")
        for attempt in (1, 2):
            code, out = test_cli.run_cli(argv, stdin_text)
            if code != expect_code:
                problems.append(f"{name}: exit {code} != {expect_code}")
                break
            if out != golden:
                problems.append(f"{name}: stdout differs from golden (run {attempt})")
                break
    _report(capsys, 9, "20 golden command invocations are byte-identical",
            problems)
