"""Tests for block factorizations, pair peeling, local lifts, and certificates."""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from orthgen import decompose
from orthgen.decompose import (
    HorrocksInstance,
    LocalDecomposition,
    TmtDecomposition,
    _constant_matrix_over,
    _laurent_matrix,
    check_horrocks_instance,
    factor_alt,
    factor_to,
    factor_unipotent,
    _lift_word,
    local_decompose,
    mo_split,
    theta_conjugate,
    tmt_decompose,
)
from orthgen.errors import (
    BadIndex,
    BadSign,
    DecompositionError,
    IndexOutOfRange,
    JSONFormatError,
    NonElementaryLetter,
    NotAlternating,
    NotMonomial,
    NotOrthogonal,
    NotTOShape,
    NotUnipotent,
    RingMismatch,
    UnsupportedRing,
)
from orthgen.generators import (
    GenLabel,
    Word,
    diag_orthogonal,
    eval_word,
    gen_F,
    perm_matrix,
    random_word,
    theta,
)
from orthgen.quadratic_space import (
    FormContext,
    Matrix,
    Vector,
    is_orthogonal,
    matrices_congruent,
    matrix_residue,
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
    TruncatedRing,
    canonical_json,
    laurent_of_poly,
    residue_ring,
    variable,
)
from orthgen.transvections import TransvectionSpec, transvection_matrix

from dense_oracle import gram, orthogonal_inverse
from sampling import matrix, random_perm, scalar

QQ = RationalField()
F3 = PrimeField(3)
F5 = PrimeField(5)
Z9 = ModularRing(3, 2)
Z25 = ModularRing(5, 2)
PQ = PolynomialRing(QQ)
LQ = LaurentRing(QQ)
MAX = IdealDescriptor("max")
CTX3 = FormContext(3)
CTX4 = FormContext(4)
ECTX3 = FormContext(3, odd=False)


def _random_monomial(ctx, ring, rng):
    sig = perm_matrix(ctx, ring, random_perm(ctx, rng))
    d0 = Scalar(ring, ring.from_int(rng.choice((1, -1))))
    d = [Scalar(ring, ring.sample_unit(rng)) for _ in range(ctx.n)]
    return sig @ diag_orthogonal(ctx, d0, d)


def _random_unipotent(ring, n, upper, rng):
    m = Matrix.identity(ring, n)
    for i in range(n):
        for j in range(i + 1, n) if upper else range(i):
            m.rows[i][j] = ring.sample(rng)
    return m


def _random_alternating(ring, n, rng):
    m = Matrix.zeros(ring, n)
    for i in range(n):
        for j in range(i + 1, n):
            z = ring.sample(rng)
            m.rows[i][j] = z
            m.rows[j][i] = ring.neg(z)
    return m


def _block_diag(ring, gamma, ctx):
    n = ctx.n
    m = Matrix.identity(ring, ctx.dim)
    inv = unitriangular_inverse(gamma.transpose())
    for i in range(n):
        for j in range(n):
            m.rows[1 + i][1 + j] = gamma.rows[i][j]
            m.rows[1 + n + i][1 + n + j] = inv.rows[i][j]
    return m


def _block_alt(ring, a, upper, ctx):
    n = ctx.n
    m = Matrix.identity(ring, ctx.dim)
    for i in range(n):
        for j in range(n):
            if upper:
                m.rows[1 + i][1 + n + j] = a.rows[i][j]
            else:
                m.rows[1 + n + i][1 + j] = a.rows[i][j]
    return m


# --- factor_unipotent ---------------------------------------------------------


def test_factor_unipotent_identity_is_empty():
    for upper in (True, False):
        w = factor_unipotent(Matrix.identity(QQ, 3), upper, CTX3)
        assert w.letters == ()
        assert eval_word(w) == Matrix.identity(QQ, 7)


def test_factor_unipotent_reads_entries_literally():
    a, b, c = 1, 2, 3
    gamma = matrix(QQ, [[1, a, b], [0, 1, c], [0, 0, 1]])
    w = factor_unipotent(gamma, True, CTX3)
    assert [(l.family, l.i, l.j, l.param.payload) for l in w.letters] == [
        ("F3", 1, 3, Fraction(b)),
        ("F3", 2, 3, Fraction(c)),
        ("F3", 1, 2, Fraction(a)),
    ]
    expect = matrix(QQ, [
        [1, 0, 0, 0, 0, 0, 0],
        [0, 1, a, b, 0, 0, 0],
        [0, 0, 1, c, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, -a, 1, 0],
        [0, 0, 0, 0, a * c - b, -c, 1],
    ])
    assert eval_word(w) == expect


def test_factor_unipotent_random_round_trip():
    rng = random.Random(101)
    for upper in (True, False):
        for _ in range(25):
            gamma = _random_unipotent(F5, 4, upper, rng)
            w = factor_unipotent(gamma, upper, CTX4)
            assert all(l.family == "F3" for l in w.letters)
            assert eval_word(w) == _block_diag(F5, gamma, CTX4)


def test_factor_unipotent_rejects_bad_blocks():
    with pytest.raises(NotUnipotent):
        factor_unipotent(matrix(QQ, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]), True, CTX3)
    lower_entry = matrix(QQ, [[1, 0, 0], [4, 1, 0], [0, 0, 1]])
    with pytest.raises(NotUnipotent):
        factor_unipotent(lower_entry, True, CTX3)
    with pytest.raises(IndexOutOfRange):
        factor_unipotent(Matrix.identity(QQ, 4), True, CTX3)
    with pytest.raises(BadIndex):
        factor_unipotent(Matrix.identity(QQ, 3), True, ECTX3)


# --- factor_alt ---------------------------------------------------------------


def test_factor_alt_zero_and_single_entry():
    w = factor_alt(Matrix.zeros(QQ, 3), True, CTX3)
    assert w.letters == ()
    a = matrix(QQ, [[0, 7, 0], [-7, 0, 0], [0, 0, 0]])
    w = factor_alt(a, True, CTX3)
    assert [(l.family, l.i, l.j, l.param.payload) for l in w.letters] == [
        ("F4", 1, 2, Fraction(7)),
    ]
    assert eval_word(w) == gen_F(CTX3, "F4", 1, 2, scalar(QQ, 7))


def test_factor_alt_random_round_trip():
    rng = random.Random(102)
    for upper in (True, False):
        for _ in range(25):
            a = _random_alternating(F5, 4, rng)
            w = factor_alt(a, upper, CTX4)
            fam = "F4" if upper else "F5"
            assert all(l.family == fam for l in w.letters)
            assert eval_word(w) == _block_alt(F5, a, upper, CTX4)


def test_factor_alt_rejects_non_alternating():
    with pytest.raises(NotAlternating):
        factor_alt(Matrix.identity(QQ, 3), True, CTX3)
    sym = matrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(NotAlternating):
        factor_alt(sym, True, CTX3)


# --- factor_to ----------------------------------------------------------------


def test_factor_to_identity_is_empty():
    w = factor_to(Matrix.identity(QQ, 7), CTX3)
    assert w.letters == ()


def test_factor_to_upper_closed_form():
    # oe_13(b) oe_23(c) oe_12(a) oe_15(cq-p) oe_16(-q) oe_26(-r) at
    # (a,b,c,p,q,r) = (1,2,3,5,7,11), as a closed 6x6 block form.
    a, b, c, p, q, r = 1, 2, 3, 5, 7, 11
    rows = [
        [1, a, b, b * q + a * p - a * c * q, b * r + c * q - p, -a * r - q],
        [0, 1, c, p, c * r, -r],
        [0, 0, 1, q, r, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, -a, 1, 0],
        [0, 0, 0, a * c - b, -c, 1],
    ]
    closed = Matrix(QQ, [[Fraction(x) for x in row] for row in rows])
    lifted = one_perp(closed)
    w = factor_to(lifted, CTX3)
    assert eval_word(w) == lifted
    assert len(w.letters) == 6
    assert {l.family for l in w.letters} == {"F3", "F4"}


def test_factor_to_lower_closed_form():
    # Lower variant at the same tuple: alternating block delta gamma^-1
    # to the left of diag(gamma, (gamma^T)^-1) with gamma lower unitriangular.
    a, b, c, p, q, r = 1, 2, 3, 5, 7, 11
    gamma = matrix(QQ, [[1, 0, 0], [a, 1, 0], [b, c, 1]])
    dg = matrix(QQ, [
        [0, -c * q + p, q],
        [c * q - p, 0, r],
        [-q, -r, 0],
    ])
    prod = _block_alt(QQ, dg, False, CTX3) @ _block_diag(QQ, gamma, CTX3)
    w = factor_to(prod, CTX3)
    assert eval_word(w) == prod
    assert {l.family for l in w.letters} == {"F3", "F5"}
    assert [(l.family, l.i, l.j) for l in w.letters] == [
        ("F5", 1, 2), ("F5", 1, 3), ("F5", 2, 3),
        ("F3", 2, 1), ("F3", 3, 1), ("F3", 3, 2),
    ]


def test_factor_to_random_round_trips():
    rng = random.Random(103)
    F7 = PrimeField(7)
    for _ in range(20):
        gamma = _random_unipotent(F7, 3, True, rng)
        a = _random_alternating(F7, 3, rng)
        m = _block_diag(F7, gamma, CTX3) @ _block_alt(F7, a, True, CTX3)
        assert eval_word(factor_to(m, CTX3)) == m
        gamma = _random_unipotent(F7, 3, False, rng)
        a = _random_alternating(F7, 3, rng)
        m = _block_alt(F7, a, False, CTX3) @ _block_diag(F7, gamma, CTX3)
        assert eval_word(factor_to(m, CTX3)) == m


def test_factor_to_rejects_wrong_shapes():
    # live center row
    with pytest.raises(NotTOShape):
        factor_to(gen_F(CTX3, "F1", 1, None, scalar(QQ, 1)), CTX3)
    # unit diagonal but not unitriangular
    d = diag_orthogonal(CTX3, scalar(QQ, 1), [scalar(QQ, 2), scalar(QQ, 1), scalar(QQ, 1)])
    with pytest.raises(NotTOShape):
        factor_to(d, CTX3)
    # upper gamma next to a lower alternating block fits neither case
    rng = random.Random(104)
    gamma = _random_unipotent(QQ, 3, True, rng)
    gamma.rows[0][1] = Fraction(3)
    a = _random_alternating(QQ, 3, rng)
    a.rows[1][0] = Fraction(2)
    a.rows[0][1] = Fraction(-2)
    mixed = _block_diag(QQ, gamma, CTX3) @ _block_alt(QQ, a, False, CTX3)
    with pytest.raises(NotTOShape):
        factor_to(mixed, CTX3)
    # correct shape but a non-alternating off block
    bad = Matrix.identity(QQ, 7)
    bad.rows[1][4] = Fraction(1)
    with pytest.raises(NotAlternating):
        factor_to(bad, CTX3)


def test_factor_to_checks_what_the_unipotent_factor_leaves():
    upper = Matrix.identity(QQ, 7)
    upper.rows[4][5] = Fraction(1)  # uu = I, but vv is not I
    lower = Matrix.identity(QQ, 7)
    lower.rows[2][1] = Fraction(1)  # uu lower unitriangular, vv = I
    for bad in (upper, lower):
        with pytest.raises(NotTOShape, match="lower block is not the inverse transpose"):
            factor_to(bad, CTX3)
    # vv = gamma^-T, but the block left of gamma is diagonal, not alternating
    lower.rows[4][5] = Fraction(-1)
    lower.rows[4][1] = Fraction(1)
    with pytest.raises(NotAlternating, match=re.escape("delta * gamma^-1 must be alternating")):
        factor_to(lower, CTX3)


# --- tmt_decompose ------------------------------------------------------------


def test_tmt_identity_and_monomial_short_circuit():
    dec = tmt_decompose(Matrix.identity(F5, 7), CTX3)
    assert dec.tau1.letters == () and dec.tau2.letters == ()
    assert dec.mu == Matrix.identity(F5, 7)
    rng = random.Random(105)
    mono = _random_monomial(CTX3, F5, rng)
    dec = tmt_decompose(mono, CTX3)
    assert dec.tau1.letters == () and dec.tau2.letters == ()
    assert dec.mu == mono


def test_tmt_random_words_round_trip():
    rng = random.Random(106)
    for ring, ctx, trials in ((F5, CTX3, 15), (F3, CTX4, 10), (QQ, CTX3, 8)):
        for _ in range(trials):
            alpha = eval_word(random_word(ctx, ring, rng, 30)) @ _random_monomial(ctx, ring, rng)
            dec = tmt_decompose(alpha, ctx)
            assert dec.recompose() == alpha
            monomial_pattern(dec.mu)
            fams = {l.family for l in dec.tau1.letters} | {l.family for l in dec.tau2.letters}
            assert fams <= {"F1", "F3", "F4"}


def test_tmt_rejects_bad_inputs():
    with pytest.raises(UnsupportedRing):
        tmt_decompose(Matrix.identity(Z9, 7), CTX3)
    skew = Matrix.identity(F5, 7)
    skew.rows[0][1] = F5.one
    with pytest.raises(NotOrthogonal):
        tmt_decompose(skew, CTX3)
    with pytest.raises(IndexOutOfRange):
        tmt_decompose(Matrix.identity(F5, 5), FormContext(2))
    with pytest.raises(BadIndex):
        tmt_decompose(Matrix.identity(F5, 6), ECTX3)
    with pytest.raises(IndexOutOfRange):
        tmt_decompose(Matrix.identity(F5, 9), CTX3)


def _non_orthogonal_shapes(ctx, ring, rng):
    """Five ways to miss the form, each reaching a different check."""
    u1, v1, u2 = ctx.u(1), ctx.v(1), ctx.u(2)
    bent = eval_word(random_word(ctx, ring, rng, 4 * ctx.n)) @ _random_monomial(ctx, ring, rng)
    r, c = rng.randrange(ctx.dim), rng.randrange(ctx.dim)
    bent.rows[r][c] = ring.add(bent.rows[r][c], ring.one)
    dense = Matrix(ring, [[ring.sample(rng) for _ in range(ctx.dim)] for _ in range(ctx.dim)])
    d = [scalar(ring, 2)] + [scalar(ring, 1)] * (ctx.n - 1)
    uv_mismatch = diag_orthogonal(ctx, scalar(ring, 1), d)
    uv_mismatch.rows[v1][v1] = ring.from_int(2)
    center_two = Matrix.identity(ring, ctx.dim)
    center_two.rows[0][0] = ring.from_int(2)
    swapped = Matrix.identity(ring, ctx.dim)  # u1 <-> u2 without v1 <-> v2
    swapped.rows[u1], swapped.rows[u2] = swapped.rows[u2], swapped.rows[u1]
    return {"bent entry": bent, "dense": dense, "u/v diagonal mismatch": uv_mismatch,
            "center 2": center_two, "non-delta-commuting permutation": swapped}


@pytest.mark.parametrize("ring", [F5, QQ], ids=["Fp:5", "Q"])
@pytest.mark.parametrize("n", [3, 5])
def test_tmt_certificate_rejects_non_orthogonal_input(ring, n):
    ctx = FormContext(n)
    rng = random.Random(f"{ring.descriptor}:{n}")
    for shape, alpha in _non_orthogonal_shapes(ctx, ring, rng).items():
        g = gram(ctx, ring)
        assert alpha.transpose() @ g @ alpha != g, shape
        with pytest.raises(NotOrthogonal, match="^input does not preserve the form$"):
            tmt_decompose(alpha, ctx)


def test_tmt_json_round_trip_and_tower_check():
    rng = random.Random(107)
    alpha = eval_word(random_word(CTX3, F5, rng, 12)) @ _random_monomial(CTX3, F5, rng)
    dec = tmt_decompose(alpha, CTX3)
    blob = dec.to_text()
    back = TmtDecomposition.from_json(json.loads(blob))
    assert back.to_text() == blob
    assert back.recompose() == alpha
    # F2 only enters the tower at parameter one half
    half_w = Word(CTX3, F5, [GenLabel("F2", 1, None, Scalar(F5, F5.half))])
    TmtDecomposition(half_w, Matrix.identity(F5, 7), Word(CTX3, F5, ()))
    bad_w = Word(CTX3, F5, [GenLabel("F2", 1, None, scalar(F5, 1))])
    with pytest.raises(NotTOShape):
        TmtDecomposition(bad_w, Matrix.identity(F5, 7), Word(CTX3, F5, ()))
    f5_w = Word(CTX3, F5, [GenLabel("F5", 1, 2, scalar(F5, 1))])
    with pytest.raises(NotTOShape):
        TmtDecomposition(Word(CTX3, F5, ()), Matrix.identity(F5, 7), f5_w)
    with pytest.raises(JSONFormatError):
        TmtDecomposition.from_json({"tau1": None})


# --- mo_split -----------------------------------------------------------------


def test_mo_split_diagonal_and_permutation_parts():
    d = diag_orthogonal(CTX3, scalar(F5, -1), [scalar(F5, 2), scalar(F5, 3), scalar(F5, 1)])
    core = mo_split(d, CTX3)
    assert core.letters == (
        GenLabel("PERM", param=(1, 2, 3, 4, 5, 6, 7)),
        GenLabel("DIAG", param=(scalar(F5, -1), (scalar(F5, 2), scalar(F5, 3), scalar(F5, 1)))),
    )
    assert eval_word(core) == d
    p = perm_matrix(CTX3, F5, (1, 3, 2, 4, 6, 5, 7))
    core = mo_split(p, CTX3)
    assert core.letters == (
        GenLabel("PERM", param=(1, 3, 2, 4, 6, 5, 7)),
        GenLabel("DIAG", param=(scalar(F5, 1), (scalar(F5, 1),) * 3)),
    )
    assert eval_word(core) == p


def test_mo_split_random_recompose():
    rng = random.Random(108)
    for _ in range(20):
        mono = _random_monomial(CTX3, F5, rng)
        core = mo_split(mono, CTX3)
        assert [l.family for l in core.letters] == ["PERM", "DIAG"]
        assert eval_word(core) == mono


def test_mo_split_rejections():
    dense = Matrix.identity(F5, 7)
    dense.rows[1][2] = F5.one
    with pytest.raises(NotMonomial):
        mo_split(dense, CTX3)
    doubled = Matrix.identity(F5, 7).scale(scalar(F5, 2))
    with pytest.raises(BadSign):
        mo_split(doubled, CTX3)
    # monomial, good center, but v slots inconsistent with the u slots
    broken = diag_orthogonal(CTX3, scalar(F5, 1), [scalar(F5, 2), scalar(F5, 1), scalar(F5, 1)])
    broken.rows[4][4] = F5.from_int(4)
    with pytest.raises(NotOrthogonal):
        mo_split(broken, CTX3)


# --- lifting words -------------------------------------------------------------


def test_lift_word_parameters_and_residue():
    w = Word(CTX3, F3, [
        GenLabel("F1", 1, None, scalar(F3, 2)),
        GenLabel("F2", 3, None, Scalar(F3, F3.half), -1),
        GenLabel("F3", 1, 2, scalar(F3, 1)),
        GenLabel("F4", 2, 3, scalar(F3, 2)),
    ])
    lifted = _lift_word(w, Z9)
    assert lifted.ring == Z9
    assert [(l.family, l.param.payload, l.exp) for l in lifted.letters] == [
        ("F1", 2, 1), ("F2", 5, -1), ("F3", 1, 1), ("F4", 2, 1),
    ]
    assert matrix_residue(eval_word(lifted)) == eval_word(w)


def test_lift_perm_and_diag():
    rng = random.Random(109)
    image = random_perm(CTX3, rng)
    for exp in (1, -1):
        w = Word(CTX3, F3, [GenLabel("PERM", param=image, exp=exp)])
        lifted = _lift_word(w, Z9)
        assert lifted.ring == Z9 and lifted.letters[0].param == image
        assert matrix_residue(eval_word(lifted)) == eval_word(w)
    d0, d = scalar(F5, -1), (scalar(F5, 2), scalar(F5, 3), scalar(F5, 1))
    lifted = _lift_word(Word(CTX3, F5, [GenLabel("DIAG", param=(d0, d))]), Z25)
    m = eval_word(lifted)
    assert [m.rows[k][k] for k in range(7)] == [24, 2, 3, 1, 13, 17, 1]
    assert is_orthogonal(m, CTX3)
    inverse = _lift_word(Word(CTX3, F5, [GenLabel("DIAG", param=(d0, d), exp=-1)]), Z25)
    assert eval_word(inverse) @ m == Matrix.identity(Z25, 7)


def test_lift_monomial_round_trip():
    rng = random.Random(110)
    for _ in range(10):
        mono = _random_monomial(CTX3, F3, rng)
        lifted = eval_word(_lift_word(mo_split(mono, CTX3), Z9))
        assert matrix_residue(lifted) == mono
        assert is_orthogonal(lifted, CTX3)
    tr = TruncatedRing(PrimeField(3), 3)
    mono = _random_monomial(CTX3, F3, rng)
    lifted = eval_word(_lift_word(mo_split(mono, CTX3), tr))
    assert matrix_residue(lifted) == mono
    assert is_orthogonal(lifted, CTX3)


# --- local_decompose ----------------------------------------------------------


def test_local_identity_and_congruent_input():
    dec = local_decompose(Matrix.identity(Z9, 7), CTX3)
    assert dec.tau1.letters == () and dec.tau2.letters == ()
    assert dec.mu == dec.residual == Matrix.identity(Z9, 7)
    alpha = gen_F(CTX3, "F1", 1, None, scalar(Z9, 3))
    dec = local_decompose(alpha, CTX3)
    assert dec.tau1.letters == () and dec.tau2.letters == ()
    assert dec.mu == Matrix.identity(Z9, 7) and dec.residual == alpha


def test_local_random_round_trip():
    rng = random.Random(111)
    tr = TruncatedRing(PrimeField(3), 3)
    for ring in (Z9, Z25, tr):
        for _ in range(8):
            alpha = eval_word(random_word(CTX3, ring, rng, 12)) @ _random_monomial(CTX3, ring, rng)
            dec = local_decompose(alpha, CTX3)
            assert dec.recompose() == alpha
            assert is_orthogonal(dec.residual, CTX3)
            assert matrices_congruent(dec.residual, Matrix.identity(ring, 7), MAX)
            assert matrix_residue(dec.residual) == Matrix.identity(residue_ring(ring), 7)


def test_local_json_round_trip():
    rng = random.Random(112)
    alpha = eval_word(random_word(CTX3, Z9, rng, 6)) @ _random_monomial(CTX3, Z9, rng)
    dec = local_decompose(alpha, CTX3)
    back = LocalDecomposition.from_json(json.loads(dec.to_text()))
    assert back.to_text() == dec.to_text()
    assert back.recompose() == alpha
    with pytest.raises(JSONFormatError):
        LocalDecomposition.from_json({"tau1": None, "mu": None})


def test_local_recompose_rejects_a_non_monomial_core():
    rng = random.Random(113)
    alpha = eval_word(random_word(CTX3, Z9, rng, 6)) @ _random_monomial(CTX3, Z9, rng)
    dec = local_decompose(alpha, CTX3)
    dense = dec.mu.copy()
    dense.rows[0][1] = Z9.one
    # The record certifies its core when it is built, so recompose never sees it.
    with pytest.raises(NotMonomial):
        LocalDecomposition(dec.tau1, dense, dec.tau2, dec.residual)


def test_local_record_checks_its_tower_words():
    # F2 at one half lifts to the half upstairs, so it stays in the tower.
    half_w = _lift_word(Word(CTX3, F3, [GenLabel("F2", 1, None, Scalar(F3, F3.half))]), Z9)
    eye = Matrix.identity(Z9, 7)
    empty = Word(CTX3, Z9, ())
    record = LocalDecomposition(half_w, eye, empty, eye)
    assert record.recompose() == eval_word(half_w)
    bad_w = Word(CTX3, Z9, [GenLabel("F2", 1, None, scalar(Z9, 1))])
    with pytest.raises(NotTOShape):
        LocalDecomposition(empty, eye, bad_w, eye)


def test_local_rejections():
    with pytest.raises(UnsupportedRing):
        local_decompose(Matrix.identity(PQ, 7), CTX3)
    skew = Matrix.identity(Z9, 7)
    skew.rows[0][1] = Z9.one
    with pytest.raises(NotOrthogonal, match="^input does not preserve the form$"):
        local_decompose(skew, CTX3)
    # The rank is checked before the form, as tmt_decompose does.
    small = Matrix.identity(Z9, 5)
    small.rows[0][1] = Z9.one
    with pytest.raises(IndexOutOfRange, match="^rank must be at least 3$"):
        local_decompose(small, FormContext(2))


def test_local_form_is_certified_once_on_the_residual(monkeypatch):
    # The residue of this input is the identity, so only the lifted
    # residual can show that the input does not preserve the form.
    tested = []

    def spy(m, ctx):
        tested.append(m.ring)
        return is_orthogonal(m, ctx)

    monkeypatch.setattr(decompose, "is_orthogonal", spy)
    skew = Matrix.identity(Z9, 7)
    skew.rows[0][1] = 3
    with pytest.raises(NotOrthogonal, match="^input does not preserve the form$"):
        local_decompose(skew, CTX3)
    assert tested == [Z9]
    tested.clear()
    local_decompose(gen_F(CTX3, "F1", 1, None, scalar(Z9, 3)), CTX3)
    assert tested == [Z9]


def test_local_congruence_check_catches_a_wrong_lift(monkeypatch):
    # Every lifted letter is orthogonal, so a lift that loses a tower
    # letter leaves an orthogonal residual; only its reduction shows it.
    lift = decompose._lift_word

    def lossy(word, ring):
        lifted = lift(word, ring)
        tower = lifted.letters and lifted.letters[0].family.startswith("F")
        return Word(lifted.ctx, ring, lifted.letters[1:] if tower else lifted.letters)

    rng = random.Random(114)
    alpha = eval_word(random_word(CTX3, Z9, rng, 6)) @ _random_monomial(CTX3, Z9, rng)
    monkeypatch.setattr(decompose, "_lift_word", lossy)
    with pytest.raises(DecompositionError, match="^residual is not congruent to the identity$"):
        local_decompose(alpha, CTX3)


# --- theta_conjugate ----------------------------------------------------------


def _poly_letters():
    X = variable(PQ)
    return [
        GenLabel("F1", 1, None, X),
        GenLabel("F4", 1, 2, X * X),
        GenLabel("F5", 2, 3, X),
        GenLabel("F3", 3, 1, X + X * X),
    ]


def _over_laurent(letters):
    return [GenLabel(l.family, l.i, l.j, laurent_of_poly(l.param), l.exp) for l in letters]


def test_theta_identity_and_matrix_word_agreement():
    conj, flag = theta_conjugate(Matrix.identity(PQ, 7), 1, CTX3)
    assert conj == Matrix.identity(LQ, 7) and flag
    letters = _poly_letters()
    conj_m, flag_m = theta_conjugate(eval_word(Word(CTX3, PQ, letters)), 1, CTX3)
    scaling = GenLabel("THETA")
    sandwich = Word(CTX3, LQ, [scaling] + _over_laurent(letters) + [scaling.inverse()])
    assert conj_m == eval_word(sandwich) and flag_m
    assert conj_m.ring == LQ


def test_theta_direction_inverts():
    w = eval_word(Word(CTX3, PQ, _poly_letters()))
    over_l = eval_word(Word(CTX3, LQ, _over_laurent(_poly_letters())))
    th = theta(CTX3, LQ)
    th_inv = Matrix.identity(LQ, 7)
    for t in range(4):
        th_inv.rows[t][t] = variable(LQ).inv().payload
    conj_plus, _ = theta_conjugate(w, 1, CTX3)
    conj_minus, _ = theta_conjugate(w, -1, CTX3)
    assert conj_plus == th @ over_l @ th_inv
    assert conj_minus == th_inv @ over_l @ th
    assert th @ conj_minus @ th_inv == over_l
    assert theta_conjugate(over_l, 1, CTX3)[0] == conj_plus


def test_theta_constant_letters_leave_the_polynomial_range():
    conj, flag = theta_conjugate(gen_F(CTX3, "F5", 1, 2, Scalar(PQ, PQ.one)), 1, CTX3)
    assert not flag
    # F3 letters commute with the scaling at any parameter
    conj, flag = theta_conjugate(gen_F(CTX3, "F3", 1, 2, Scalar(PQ, PQ.one)), 1, CTX3)
    assert flag


def test_theta_transvection_spec_path():
    q = lambda x: Scalar(QQ, Fraction(x))
    eword = Word(ECTX3, QQ, [
        GenLabel("OE", 1, 2, q(2)),
        GenLabel("OE", 5, 3, q(3)),
        GenLabel("OE", 2, 6, q(1)),
    ])
    frame = one_perp(eval_word(eword))

    def col(j):
        return Vector(PQ, [PQ.make([frame.rows[r][j]]) for r in range(7)])

    X = variable(PQ)
    spec = TransvectionSpec(CTX3, col(1), col(2), X + X * X)
    conj, flag = theta_conjugate(transvection_matrix(spec), 1, CTX3)
    assert flag and conj.ring == LQ and is_orthogonal(conj, CTX3)


def test_theta_rejections():
    with pytest.raises(BadIndex):
        theta_conjugate(Matrix.identity(PQ, 7), 0, CTX3)
    for other in (5, Word(CTX3, PQ, _poly_letters())):
        with pytest.raises(BadIndex, match="beta must be a Matrix"):
            theta_conjugate(other, 1, CTX3)
    skew = Matrix.identity(PQ, 7)
    skew.rows[0][1] = PQ.one
    with pytest.raises(NotOrthogonal):
        theta_conjugate(skew, 1, CTX3)
    with pytest.raises(UnsupportedRing):
        theta_conjugate(Matrix.identity(F5, 7), 1, CTX3)


# --- Horrocks certificates ----------------------------------------------------


def _laurent_word(w):
    return Word(w.ctx, LQ, [
        GenLabel(l.family, l.i, l.j, laurent_of_poly(l.param), l.exp)
        for l in w.letters
    ])


def test_horrocks_trivial_instance_accepts():
    inst = HorrocksInstance(
        Matrix.identity(PQ, 7), Matrix.identity(LQ, 7), Word(CTX3, LQ, ()))
    verdict = check_horrocks_instance(inst)
    assert verdict == {
        "alpha_orthogonal": True,
        "beta_orthogonal": True,
        "beta_negative_powers": True,
        "quotient_elementary": True,
        "accepted": True,
    }


def test_horrocks_word_instance_with_claim():
    wp = Word(CTX3, PQ, _poly_letters())
    inst = HorrocksInstance(
        eval_word(wp), Matrix.identity(LQ, 7), _laurent_word(wp),
        claim=(Matrix.identity(QQ, 7), wp))
    verdict = check_horrocks_instance(inst)
    assert verdict["accepted"]
    assert verdict["claim_constant"] and verdict["claim_recomposes"]


def test_horrocks_embeds_alpha_in_one_laurent_ring(monkeypatch):
    text = (Path(__file__).parent / "golden" / "horrocks_accept.in").read_text(encoding="utf-8")
    inst = HorrocksInstance.from_json(json.loads(text))
    embedded = _laurent_matrix(inst.alpha)
    assert embedded.rows == [[laurent_of_poly(Scalar(PQ, inst.alpha.rows[i][j])).payload for j in range(7)]
                             for i in range(7)]
    built = [0]
    plain = LaurentRing.__init__

    def counted(self, base):
        built[0] += 1
        plain(self, base)

    monkeypatch.setattr(LaurentRing, "__init__", counted)
    assert check_horrocks_instance(inst)["accepted"]
    assert built == [1]


def test_horrocks_single_parameter_mutant_rejects():
    wp = Word(CTX3, PQ, _poly_letters())
    letters = list(_laurent_word(wp).letters)
    bumped = letters[0]
    letters[0] = GenLabel(bumped.family, bumped.i, bumped.j,
                          bumped.param + Scalar(LQ, LQ.one), bumped.exp)
    inst = HorrocksInstance(eval_word(wp), Matrix.identity(LQ, 7), Word(CTX3, LQ, letters))
    verdict = check_horrocks_instance(inst)
    assert verdict["alpha_orthogonal"] and verdict["beta_orthogonal"]
    assert not verdict["quotient_elementary"]
    assert not verdict["accepted"]


def test_horrocks_negative_power_splitting():
    X = variable(PQ)
    one_plus = Scalar(PQ, PQ.one) + X
    alpha = gen_F(CTX3, "F1", 1, None, one_plus)
    beta = gen_F(CTX3, "F1", 1, None, variable(LQ).inv())
    wit_param = laurent_of_poly(one_plus) - variable(LQ).inv()
    witness = Word(CTX3, LQ, [GenLabel("F1", 1, None, wit_param)])
    verdict = check_horrocks_instance(HorrocksInstance(alpha, beta, witness))
    assert verdict["accepted"]
    assert verdict["beta_negative_powers"]
    # positive powers in beta break the bound check
    beta_bad = gen_F(CTX3, "F1", 1, None, variable(LQ))
    verdict = check_horrocks_instance(HorrocksInstance(alpha, beta_bad, witness))
    assert not verdict["beta_negative_powers"]
    assert not verdict["accepted"]


def test_horrocks_bent_beta_is_judged_by_the_division_free_equation():
    # For a non-orthogonal beta the form adjoint is not beta^-1, so
    # quotient_elementary reads eval(witness) * beta = alpha literally;
    # accepted still needs beta to be orthogonal.
    wp = Word(CTX3, PQ, _poly_letters())
    bent = Matrix.identity(QQ, 7)
    bent.rows[1][2] = QQ.one
    beta = Matrix(LQ, [[LQ.make(0, [a]) for a in row] for row in bent.rows])
    alpha = eval_word(wp) @ _constant_matrix_over(bent, PQ)
    verdict = check_horrocks_instance(HorrocksInstance(alpha, beta, _laurent_word(wp)))
    assert not verdict["beta_orthogonal"]
    assert verdict["quotient_elementary"]
    assert not verdict["accepted"]
    assert orthogonal_inverse(beta, CTX3) @ beta != Matrix.identity(LQ, 7)


def test_horrocks_claim_failure_modes():
    wp = Word(CTX3, PQ, _poly_letters())
    alpha = eval_word(wp)
    flipped = diag_orthogonal(CTX3, scalar(QQ, -1),
                              [scalar(QQ, 1), scalar(QQ, 1), scalar(QQ, 1)])
    inst = HorrocksInstance(alpha, Matrix.identity(LQ, 7), _laurent_word(wp),
                            claim=(flipped, wp))
    verdict = check_horrocks_instance(inst)
    assert verdict["claim_constant"]
    assert not verdict["claim_recomposes"]
    assert not verdict["accepted"]


def test_horrocks_constructor_rejections():
    wp = Word(CTX3, PQ, _poly_letters())
    with pytest.raises(NonElementaryLetter):
        HorrocksInstance(
            Matrix.identity(PQ, 7), Matrix.identity(LQ, 7),
            Word(CTX3, LQ, [GenLabel("PERM", None, None, (1, 2, 3, 4, 5, 6, 7))]))
    with pytest.raises(RingMismatch):
        HorrocksInstance(
            Matrix.identity(PQ, 7), Matrix.identity(LaurentRing(F5), 7),
            Word(CTX3, LQ, ()))
    with pytest.raises(RingMismatch):
        HorrocksInstance(
            Matrix.identity(PQ, 7), Matrix.identity(LQ, 7), Word(CTX3, LQ, ()),
            claim=(Matrix.identity(QQ, 7), _laurent_word(wp)))
    with pytest.raises(IndexOutOfRange):
        HorrocksInstance(
            Matrix.identity(PQ, 9), Matrix.identity(LQ, 7), Word(CTX3, LQ, ()))


def test_horrocks_json_round_trip():
    wp = Word(CTX3, PQ, _poly_letters())
    inst = HorrocksInstance(
        eval_word(wp), Matrix.identity(LQ, 7), _laurent_word(wp),
        claim=(Matrix.identity(QQ, 7), wp))
    back = HorrocksInstance.from_json(inst.to_json())
    assert canonical_json(back.to_json()) == canonical_json(inst.to_json())
    assert check_horrocks_instance(back)["accepted"]
    plain = HorrocksInstance(
        Matrix.identity(PQ, 7), Matrix.identity(LQ, 7), Word(CTX3, LQ, ()))
    assert HorrocksInstance.from_json(plain.to_json()).claim is None
    with pytest.raises(JSONFormatError):
        HorrocksInstance.from_json({"alpha": None})
    bad = inst.to_json()
    bad["claim"] = {"alpha0": bad["claim"]["alpha0"]}
    with pytest.raises(JSONFormatError):
        HorrocksInstance.from_json(bad)
