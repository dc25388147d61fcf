import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthgen.errors import (
    BadIndex,
    BadSign,
    JSONFormatError,
    NotAUnit,
    NotDeltaCommuting,
    NotOrthogonal,
    OddLength,
    RingMismatch,
    UnsupportedRing,
)
from orthgen.generators import (
    F_FAMILIES,
    GenLabel,
    Word,
    commutator,
    diag_orthogonal,
    eval_word,
    gen_F,
    gen_oe,
    perm_matrix,
    random_word,
    theta,
    word_from_json,
    word_shuffle,
    word_to_json,
)
from orthgen.quadratic_space import FormContext, Matrix, is_orthogonal, one_perp
from orthgen.rings import PrimeField, RationalField, Scalar, canonical_json, ring_from_string, variable

from dense_oracle import letter_matrix, orthogonal_inverse
from sampling import random_perm, scalar

QQ = RationalField()
F5 = PrimeField(5)
F7 = PrimeField(7)
CTX3 = FormContext(3)
CTX4 = FormContext(4)
ECTX3 = FormContext(3, odd=False)


def q(x) -> Scalar:
    return Scalar(QQ, Fraction(x))


def mat_q(rows, dim=7) -> Matrix:
    m = Matrix.identity(QQ, dim)
    for i, j, val in rows:
        m.rows[i - 1][j - 1] = Fraction(val)
    return m


def test_gen_f_zero_parameter_is_identity():
    assert gen_F(CTX3, "F1", 1, None, q(0)) == Matrix.identity(QQ, 7)
    assert gen_F(CTX3, "F4", 2, 3, q(0)) == Matrix.identity(QQ, 7)


def test_gen_f_family_one_formula():
    # F1_1(z) = I + e_{1,5}(z) - e_{2,1}(2z) - e_{2,5}(z^2), 1-based entries
    z = 3
    expect = mat_q([(1, 5, z), (2, 1, -2 * z), (2, 5, -z * z)])
    assert gen_F(CTX3, "F1", 1, None, q(z)) == expect


def test_gen_f_family_four_instance():
    # F4_{1,2}(5) = I + e_{2,6}(5) - e_{3,5}(5)
    expect = mat_q([(2, 6, 5), (3, 5, -5)])
    assert gen_F(CTX3, "F4", 1, 2, q(5)) == expect


def test_gen_f_family_five_instance():
    # F5_{1,2}(z) = I + e_{5,3}(z) - e_{6,2}(z)
    expect = mat_q([(5, 3, 4), (6, 2, -4)])
    assert gen_F(CTX3, "F5", 1, 2, q(4)) == expect


def test_h_list_displays_negate_the_parameter():
    # The worked O_7 generator list prints each letter with its parameter
    # negated relative to the family formulas; H4 shows
    # I - e_{5,1}(1) + e_{1,2}(1/2) - e_{5,2}(1/4), which is F2_1(+1/2).
    display = mat_q([(5, 1, -1), (1, 2, Fraction(1, 2)), (5, 2, Fraction(-1, 4))])
    assert gen_F(CTX3, "F2", 1, None, q(Fraction(1, 2))) == display
    assert gen_F(CTX3, "F2", 1, None, q(Fraction(-1, 2))) != display
    # H1 shows I + e_{2,1}(2z) - e_{1,5}(z) - e_{2,5}(z^2), which is F1_1(-z)
    z = 3
    h1 = mat_q([(2, 1, 2 * z), (1, 5, -z), (2, 5, -z * z)])
    assert gen_F(CTX3, "F1", 1, None, q(-z)) == h1


def test_gen_f_index_errors():
    with pytest.raises(BadIndex):
        gen_F(CTX3, "F9", 1, None, q(1))
    with pytest.raises(BadIndex):
        gen_F(CTX3, "F1", 4, None, q(1))
    with pytest.raises(BadIndex):
        gen_F(CTX3, "F1", 1, 2, q(1))
    with pytest.raises(BadIndex):
        gen_F(CTX3, "F3", 1, None, q(1))
    with pytest.raises(BadIndex):
        gen_F(CTX3, "F3", 2, 2, q(1))
    with pytest.raises(BadIndex):
        gen_F(ECTX3, "F1", 1, None, q(1))


def test_gen_f_orthogonal_all_families():
    rng = random.Random(11)
    for ring in (QQ, F7, ring_from_string("Zpk:5:2")):
        for fam in F_FAMILIES:
            for _ in range(5):
                i = rng.randrange(1, 4)
                j = None
                if fam not in ("F1", "F2"):
                    j = rng.randrange(1, 3)
                    if j >= i:
                        j += 1
                z = Scalar(ring, ring.sample(rng))
                assert is_orthogonal(gen_F(CTX3, fam, i, j, z), CTX3)


@given(st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=40, deadline=None)
def test_gen_f_additive_in_parameter(a, b):
    for fam, i, j in (("F1", 2, None), ("F2", 3, None), ("F3", 1, 3), ("F4", 3, 1), ("F5", 2, 3)):
        lhs = gen_F(CTX3, fam, i, j, q(a)) @ gen_F(CTX3, fam, i, j, q(b))
        assert lhs == gen_F(CTX3, fam, i, j, q(a + b))


def test_gen_f_symmetric_families_swap_sign():
    # F4_{ij}(z) = F4_{ji}(-z) and the same for F5
    z = q(7)
    assert gen_F(CTX3, "F4", 1, 2, z) == gen_F(CTX3, "F4", 2, 1, -z)
    assert gen_F(CTX3, "F5", 3, 1, z) == gen_F(CTX3, "F5", 1, 3, -z)


def _letter_word(ctx, ring, fam, i, z):
    return Word(ctx, ring, [GenLabel(fam, i, None, z)])


def _dense_commutator(a, b, ctx):
    return a @ b @ orthogonal_inverse(a, ctx) @ orthogonal_inverse(b, ctx)


def test_commutator_relations_for_derived_families():
    # F3_ij(z) = [F1_i(z), F2_j(-1/2)], F4_ij(z) = [F1_j(z), F1_i(1/2)],
    # F5_ij(z) = [F2_j(z), F2_i(1/2)] under [a,b] = a b a^-1 b^-1.
    rng = random.Random(23)
    for ring in (QQ, F7):
        half = Scalar(ring, ring.half)
        for ctx in (CTX3, CTX4):
            for _ in range(6):
                i = rng.randrange(1, ctx.n + 1)
                j = rng.randrange(1, ctx.n)
                if j >= i:
                    j += 1
                z = Scalar(ring, ring.sample(rng))
                for fam, (fa, ia, za), (fb, ib, zb) in (
                    ("F3", ("F1", i, z), ("F2", j, -half)),
                    ("F4", ("F1", j, z), ("F1", i, half)),
                    ("F5", ("F2", j, z), ("F2", i, half)),
                ):
                    a = _letter_word(ctx, ring, fa, ia, za)
                    b = _letter_word(ctx, ring, fb, ib, zb)
                    word = commutator(a, b)
                    assert word.letters == a.letters + b.letters + (
                        a.letters[0].inverse(), b.letters[0].inverse())
                    got = eval_word(word)
                    assert got == gen_F(ctx, fam, i, j, z)
                    assert got == _dense_commutator(eval_word(a), eval_word(b), ctx)


def test_gen_oe_formula_and_errors():
    assert gen_oe(ECTX3, 1, 2, q(0)) == Matrix.identity(QQ, 6)
    # oe_13(b) = I_6 + e_{1,3}(b) - e_{6,4}(b)
    m = Matrix.identity(QQ, 6)
    m.rows[0][2] = Fraction(2)
    m.rows[5][3] = Fraction(-2)
    assert gen_oe(ECTX3, 1, 3, q(2)) == m
    assert is_orthogonal(gen_oe(ECTX3, 2, 6, q(5)), ECTX3)
    with pytest.raises(BadIndex):
        gen_oe(ECTX3, 1, 4, q(1))  # 4 = delta(1)
    with pytest.raises(BadIndex):
        gen_oe(ECTX3, 2, 2, q(1))
    with pytest.raises(BadIndex):
        gen_oe(ECTX3, 0, 3, q(1))
    with pytest.raises(BadIndex):
        gen_oe(CTX3, 1, 2, q(1))


def test_oe_one_perp_embedding_table():
    # 1-perp lifts of the six oe letters equal the stated F3/F4 letters.
    table = [
        ((1, 2), ("F3", 1, 2)),
        ((1, 3), ("F3", 1, 3)),
        ((1, 5), ("F4", 1, 2)),
        ((1, 6), ("F4", 1, 3)),
        ((2, 3), ("F3", 2, 3)),
        ((2, 6), ("F4", 2, 3)),
    ]
    rng = random.Random(5)
    for ring in (QQ, F5):
        for (p, pq), (fam, i, j) in table:
            z = Scalar(ring, ring.sample(rng))
            assert one_perp(gen_oe(ECTX3, p, pq, z)) == gen_F(CTX3, fam, i, j, z)


def test_perm_matrix_identity_and_delta():
    assert perm_matrix(CTX3, QQ, (1, 2, 3, 4, 5, 6, 7)) == Matrix.identity(QQ, 7)
    sigma = perm_matrix(CTX3, QQ, (1, 5, 6, 7, 2, 3, 4))  # u_i <-> v_i
    assert is_orthogonal(sigma, CTX3)
    assert sigma @ sigma == Matrix.identity(QQ, 7)


def test_perm_matrix_rejects_non_delta_commuting():
    with pytest.raises(NotDeltaCommuting):
        perm_matrix(CTX3, QQ, (1, 3, 2, 4, 5, 6, 7))  # swaps u_1, u_2 only
    with pytest.raises(NotDeltaCommuting):
        perm_matrix(CTX3, QQ, (2, 1, 3, 4, 5, 6, 7))  # moves the center
    with pytest.raises(BadIndex):
        perm_matrix(CTX3, QQ, (1, 1, 3, 4, 5, 6, 7))


def test_random_perm_is_delta_commuting_and_orthogonal():
    rng = random.Random(31)
    for ctx in (CTX3, CTX4, ECTX3):
        for _ in range(10):
            pi = random_perm(ctx, rng)
            assert is_orthogonal(perm_matrix(ctx, F5, pi), ctx)


def test_diag_orthogonal_formula():
    ctx = FormContext(2)
    m = diag_orthogonal(ctx, q(1), (q(2), q(3)))
    rows = [[1, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 3, 0, 0],
            [0, 0, 0, Fraction(1, 2), 0], [0, 0, 0, 0, Fraction(1, 3)]]
    assert m == Matrix(QQ, [[Fraction(x) for x in row] for row in rows])
    assert is_orthogonal(m, ctx)
    neg = diag_orthogonal(ctx, q(-1), (q(5), q(-7)))
    assert is_orthogonal(neg, ctx)


def test_diag_orthogonal_errors():
    ctx = FormContext(2)
    with pytest.raises(BadSign):
        diag_orthogonal(ctx, q(2), (q(1), q(1)))
    with pytest.raises(NotAUnit):
        diag_orthogonal(ctx, q(1), (q(0), q(1)))
    z9 = ring_from_string("Zpk:3:2")
    with pytest.raises(NotAUnit):
        diag_orthogonal(ctx, Scalar(z9, z9.one), (Scalar(z9, z9.from_int(3)), Scalar(z9, z9.one)))
    with pytest.raises(BadIndex):
        diag_orthogonal(ctx, q(1), (q(1),))


def test_dim5_diag_perm_commutator_identity():
    # [D, sigma_(2,4)] = diag(1, b^2, 1, b^-2, 1) for D = diag(1,b,1/b,1/b,b)
    ctx = FormContext(2)
    for ring, bval in ((QQ, 3), (F7, 4)):
        b = Scalar(ring, ring.from_int(bval))
        one = Scalar(ring, ring.one)
        d = Word(ctx, ring, [GenLabel("DIAG", param=(one, (b, b.inv())))])
        sigma = Word(ctx, ring, [GenLabel("PERM", param=(1, 4, 3, 2, 5))])
        got = eval_word(commutator(d, sigma))
        assert got == diag_orthogonal(ctx, one, (b * b, one))
        assert got == _dense_commutator(eval_word(d), eval_word(sigma), ctx)


def test_triangular_generator_relations_for_second_family():
    # The three O_7 relations writing F2_j(z) as squared commutator products,
    # with the nested commutators built as words.
    for ring in (QQ, F7):
        ctx = CTX3
        mh = Scalar(ring, ring.neg(ring.half))
        half = Scalar(ring, ring.half)

        def f(fam, i, z):
            return _letter_word(ctx, ring, fam, i, z)

        for zi in (0, 1, 2, -3):
            z = Scalar(ring, ring.from_int(zi))
            zq = z * z * half
            for jj in (1, 2):
                inner = commutator(f("F2", jj, mh), f("F2", 3, mh))
                a = commutator(f("F1", 3, z), inner)
                assert eval_word(a) == _dense_commutator(
                    gen_F(ctx, "F1", 3, None, z), eval_word(inner), ctx)
                bb = commutator(f("F1", 3, zq), f("F2", jj, mh))
                prod = a * bb
                assert eval_word(prod * prod) == gen_F(ctx, "F2", jj, None, z)
            a = commutator(f("F1", 2, zq), f("F2", 3, mh))
            inner = commutator(f("F2", 2, mh), f("F2", 3, mh))
            bb = commutator(f("F1", 2, z), inner)
            prod = a * bb.inverse()
            assert eval_word(prod * prod) == gen_F(ctx, "F2", 3, None, z)


def test_diag_conjugation_scales_parameters():
    # diag(d0, d) * F1_i(z) * (...)^-1 = F1_i(d0*d_i*z); F2 picks up d0/d_i.
    rng = random.Random(17)
    for ring in (QQ, F7):
        for s0 in (1, -1):
            d0 = Scalar(ring, ring.from_int(s0))
            d = tuple(Scalar(ring, ring.sample_unit(rng)) for _ in range(3))
            alpha = diag_orthogonal(CTX3, d0, d)
            alpha_inv = orthogonal_inverse(alpha, CTX3)
            z = Scalar(ring, ring.sample(rng))
            for i in (1, 2, 3):
                got1 = alpha @ gen_F(CTX3, "F1", i, None, z) @ alpha_inv
                assert got1 == gen_F(CTX3, "F1", i, None, d0 * d[i - 1] * z)
                got2 = alpha @ gen_F(CTX3, "F2", i, None, z) @ alpha_inv
                assert got2 == gen_F(CTX3, "F2", i, None, d0 * d[i - 1].inv() * z)


def test_theta_shape_and_inverse():
    LQ = ring_from_string("laurent:Q")
    th = theta(CTX3, LQ, 4)
    x = variable(LQ)
    expect = Matrix.identity(LQ, 7)
    for s in range(4):
        expect.rows[s][s] = x.payload
    assert th == expect
    assert theta(CTX3, LQ, 0) == Matrix.identity(LQ, 7)
    inv_letter = letter_matrix(CTX3, LQ, GenLabel("THETA", param=4, exp=-1))
    assert th @ inv_letter == Matrix.identity(LQ, 7)
    PQ = ring_from_string("poly:Q")
    assert not PQ.is_zero(theta(CTX3, PQ, 2).rows[0][0])
    with pytest.raises(UnsupportedRing):
        theta(CTX3, QQ)
    with pytest.raises(UnsupportedRing):
        letter_matrix(CTX3, ring_from_string("poly:Q"), GenLabel("THETA", param=4, exp=-1))
    with pytest.raises(BadIndex):
        theta(CTX3, LQ, 8)


def test_eval_word_basics():
    empty = Word(CTX3, QQ, ())
    assert eval_word(empty) == Matrix.identity(QQ, 7)
    z = q(9)
    w = Word(CTX3, QQ, (GenLabel("F1", 1, None, z), GenLabel("F1", 1, None, z, exp=-1)))
    assert eval_word(w) == Matrix.identity(QQ, 7)
    for fam, i, j in (("F2", 2, None), ("F3", 1, 2), ("F4", 2, 3), ("F5", 3, 1)):
        w = Word(CTX3, QQ, (GenLabel(fam, i, j, z), GenLabel(fam, i, j, z, exp=-1)))
        assert eval_word(w) == Matrix.identity(QQ, 7)


def test_eval_word_reproduces_upper_factorization():
    # oe_13(b) oe_23(c) oe_12(a) oe_15(cq-p) oe_16(-q) oe_26(-r) at
    # (a,b,c,p,q,r) = (1,2,3,5,7,11) equals the closed 6x6 block form.
    a, b, c, p, pq, r = 1, 2, 3, 5, 7, 11
    letters = [
        GenLabel("OE", 1, 3, q(b)),
        GenLabel("OE", 2, 3, q(c)),
        GenLabel("OE", 1, 2, q(a)),
        GenLabel("OE", 1, 5, q(c * pq - p)),
        GenLabel("OE", 1, 6, q(-pq)),
        GenLabel("OE", 2, 6, q(-r)),
    ]
    rows = [
        [1, a, b, b * pq + a * p - a * c * pq, b * r + c * pq - p, -a * r - pq],
        [0, 1, c, p, c * r, -r],
        [0, 0, 1, pq, r, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, -a, 1, 0],
        [0, 0, 0, a * c - b, -c, 1],
    ]
    closed = Matrix(QQ, [[Fraction(x) for x in row] for row in rows])
    assert eval_word(Word(ECTX3, QQ, letters)) == closed
    assert is_orthogonal(closed, ECTX3)


def test_word_shuffle_single_pair_and_equality():
    z = Scalar(F5, F5.from_int(2))
    w2 = Scalar(F5, F5.from_int(3))
    a1 = GenLabel("F1", 1, None, z)
    b1 = GenLabel("F3", 1, 2, w2)
    word = Word(CTX3, F5, (a1, b1))
    out = word_shuffle(word)
    assert out.letters == (a1, b1, a1.inverse(), a1)
    assert eval_word(out) == eval_word(word)
    rng = random.Random(3)
    word = random_word(CTX3, F5, rng, 8)
    assert eval_word(word_shuffle(word)) == eval_word(word)
    with pytest.raises(OddLength):
        word_shuffle(random_word(CTX3, F5, rng, 5))


def test_word_validation():
    z = q(1)
    with pytest.raises(BadIndex):
        Word(CTX3, QQ, (GenLabel("F1", 9, None, z),))
    with pytest.raises(RingMismatch):
        Word(CTX3, QQ, (GenLabel("F1", 1, None, Scalar(F5, F5.one)),))
    with pytest.raises(BadIndex):
        GenLabel("F1", 1, None, z, exp=2)
    with pytest.raises(RingMismatch):
        Word(CTX3, QQ, (GenLabel("F1", 1, None, z),)) * Word(CTX4, QQ, ())
    with pytest.raises(RingMismatch):
        Word(CTX3, QQ, (GenLabel("F1", 1, None, z),)) * Word(CTX3, F5, (GenLabel("F1", 1, None, scalar(F5, 1)),))


@pytest.mark.parametrize("derive", [
    lambda w: w.inverse(),
    lambda w: word_shuffle(w * w),
    lambda w: commutator(w, w),
], ids=["inverse", "word_shuffle", "commutator"])
def test_inverting_a_theta_letter_needs_a_laurent_ring(derive):
    # Words built from checked words re-check only this rule.
    poly = Word(CTX3, ring_from_string("poly:Q"), [GenLabel("THETA", param=2)])
    with pytest.raises(UnsupportedRing, match="^inverse THETA letters need a laurent ring$"):
        derive(poly)
    LQ = ring_from_string("laurent:Q")
    laurent = Word(CTX3, LQ, [GenLabel("THETA", param=2)])
    derived = derive(laurent)
    assert derived.ring == LQ
    assert eval_word(derived) == eval_word(word_from_json(word_to_json(derived)))


def test_word_json_round_trip_all_letter_kinds():
    z = q(Fraction(-7, 2))
    w = Word(
        CTX3,
        QQ,
        (
            GenLabel("F1", 2, None, z),
            GenLabel("F4", 1, 3, q(5), exp=-1),
            GenLabel("PERM", param=(1, 5, 6, 7, 2, 3, 4)),
            GenLabel("DIAG", param=(q(-1), (q(2), q(3), q(Fraction(1, 7))))),
        ),
    )
    obj = word_to_json(w)
    assert word_from_json(obj) == w
    assert canonical_json(obj) == canonical_json(json.loads(canonical_json(obj)))

    LQ = ring_from_string("laurent:F5")
    wt = Word(CTX3, LQ, (GenLabel("THETA", param=4), GenLabel("THETA", param=4, exp=-1),
                         GenLabel("THETA")))
    assert word_from_json(word_to_json(wt)) == wt

    we = Word(ECTX3, F5, (GenLabel("OE", 1, 3, Scalar(F5, F5.from_int(2))),))
    obj = word_to_json(we)
    assert obj["even"] is True
    assert word_from_json(obj) == we


def test_word_json_rejects_garbage():
    with pytest.raises(JSONFormatError):
        word_from_json({"ring": "Q"})
    with pytest.raises(JSONFormatError):
        word_from_json({"n": 3, "ring": "Q", "letters": [{"fam": "NOPE"}]})
    with pytest.raises(JSONFormatError):
        word_from_json({"n": 3, "ring": "Q", "letters": [{"fam": "F1", "i": 1}]})
    with pytest.raises(JSONFormatError):
        word_from_json({"n": 3, "ring": "Q", "letters": {"fam": "F1", "i": 1, "z": "1"}})
    with pytest.raises(UnsupportedRing):
        word_from_json({"n": 3, "ring": 5, "letters": []})


@pytest.mark.parametrize("letter", [
    {"fam": "PERM"},
    {"fam": "PERM", "perm": 7},
    {"fam": "PERM", "perm": ["1", 2, 3, 4, 5, 6, 7]},
    {"fam": "PERM", "perm": [1, 2, 3, 4, 5, 6, [7]]},
    {"fam": "DIAG", "d": ["1", "1", "1"]},
    {"fam": "DIAG", "d0": "1"},
    {"fam": "DIAG", "d0": "1", "d": "1"},
    {"fam": "F1", "i": "1", "z": "1"},
    {"fam": "F1", "i": True, "z": "1"},
    {"fam": "F3", "i": 1, "j": 2.0, "z": "1"},
    {"fam": "OE", "i": 1, "z": "1"},
    {"fam": "THETA"},
    {"fam": "THETA", "m": "2"},
    {"fam": "THETA", "m": False},
    {"fam": "F1", "i": 1, "z": "1", "exp": True},
])
def test_word_json_rejects_malformed_letters(letter):
    with pytest.raises(JSONFormatError):
        word_from_json({"n": 3, "ring": "Q", "letters": [letter]})


def test_random_word_deterministic_and_orthogonal():
    w1 = random_word(CTX3, F5, random.Random(99), 12)
    w2 = random_word(CTX3, F5, random.Random(99), 12)
    assert w1 == w2
    m = eval_word(w1)
    assert is_orthogonal(m, CTX3)
    assert orthogonal_inverse(m, CTX3) @ m == Matrix.identity(F5, 7)
