import random
from fractions import Fraction
from itertools import permutations

import pytest

from orthgen.errors import (
    IndexOutOfRange,
    JSONFormatError,
    NotMonomial,
    NotUnipotent,
    RingMismatch,
    UnsupportedRing,
)
from orthgen.quadratic_space import (
    FormContext,
    Matrix,
    Vector,
    embed_blocks,
    is_orthogonal,
    matrices_congruent,
    matrix_residue,
    monomial_pattern,
    one_perp,
    split_blocks,
    unitriangular_inverse,
)
from orthgen.rings import (
    IdealDescriptor,
    ModularRing,
    PrimeField,
    RationalField,
    Scalar,
    ring_from_string,
)

from dense_oracle import add, det, gram, neg, orthogonal_inverse, outer, sub, unitriangular_series
from sampling import RINGS, matrix, scalar

QQ = RationalField()
F7 = PrimeField(7)
Z9 = ModularRing(3, 2)


def random_matrix(ring, dim, rng):
    return Matrix(ring, [[ring.sample(rng) for _ in range(dim)] for _ in range(dim)], copy=False)


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def leibniz_det(m):
    # independent oracle: direct expansion, fine for dim <= 5
    R = m.ring
    total = R.zero
    for perm in permutations(range(m.dim)):
        prod = R.one
        for i, p in enumerate(perm):
            prod = R.mul(prod, m.rows[i][p])
        total = R.add(total, prod if perm_sign(perm) > 0 else R.neg(prod))
    return Scalar(R, total)


def gauss_det_q(m):
    # independent oracle: fraction-exact elimination with pivoting
    a = [[Fraction(x) for x in row] for row in m.rows]
    d = len(a)
    det = Fraction(1)
    for col in range(d):
        piv = next((r for r in range(col, d) if a[r][col] != 0), None)
        if piv is None:
            return Scalar(QQ, Fraction(0))
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, d):
            f = a[r][col] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return Scalar(QQ, det)


@pytest.mark.parametrize("desc", ["Q", "Fp:7", "Zpk:3:2", "poly:Fp:5"])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_det_matches_leibniz(desc, dim):
    ring = ring_from_string(desc)
    rng = random.Random(f"{desc}:{dim}")
    for _ in range(25):
        m = random_matrix(ring, dim, rng)
        assert det(m) == leibniz_det(m)


@pytest.mark.parametrize("dim", [5, 6, 7])
def test_det_matches_gauss_over_q(dim):
    rng = random.Random(dim)
    for _ in range(10):
        m = random_matrix(QQ, dim, rng)
        assert det(m) == gauss_det_q(m)


def test_det_basics_and_multiplicativity():
    assert det(Matrix.identity(Z9, 5)) == scalar(Z9, 1)
    diag = matrix(QQ, [[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    assert det(diag) == scalar(QQ, 30)
    # permutation matrix picks up the sign
    p = matrix(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert det(p) == scalar(QQ, -1)
    rng = random.Random(17)
    for _ in range(20):
        a = random_matrix(Z9, 4, rng)
        b = random_matrix(Z9, 4, rng)
        assert det(a @ b) == det(a) * det(b)


def test_matrix_basic_ops():
    a = matrix(F7, [[1, 2], [3, 4]])
    b = matrix(F7, [[0, 1], [1, 0]])
    assert (a @ b) == matrix(F7, [[2, 1], [4, 3]])
    assert sub(add(a, b), b) == a
    assert add(neg(a), a) == Matrix.zeros(F7, 2)
    assert a.scale(scalar(F7, 2)) == matrix(F7, [[2, 4], [6, 1]])
    assert a.transpose() == matrix(F7, [[1, 3], [2, 4]])
    assert a.rows[1][0] == 3
    c = a.copy()
    c.rows[0][0] = 5
    assert a.rows[0][0] == 1
    assert Matrix.identity(F7, 3).rows == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(RingMismatch):
        a @ Matrix.identity(Z9, 2)
    with pytest.raises(IndexOutOfRange):
        a @ Matrix.identity(F7, 3)


def test_row_and_col_ops_match_elementary_products():
    rng = random.Random(3)
    for _ in range(20):
        m = random_matrix(F7, 4, rng)
        z = F7.sample(rng)
        e = Matrix.identity(F7, 4)
        e.rows[1][3] = z
        left = (e @ m)
        viaop = m.copy()
        viaop.row_add(1, 3, z)
        assert viaop == left
        right = (m @ e)
        viaop = m.copy()
        viaop.col_add(3, 1, z)
        assert viaop == right


def test_vector_ops():
    v = Vector(F7, [1, 2, 3])
    w = Vector(F7, [0, 1, 0])
    assert v.dot(w) == scalar(F7, 2)
    assert (v + w).comps == [1, 3, 3]
    assert (v - w).comps == [1, 1, 3]
    assert (-v).comps == [6, 5, 4]
    assert v.scale(scalar(F7, 2)).comps == [2, 4, 6]
    assert outer(v, w) == matrix(F7, [[0, 1, 0], [0, 2, 0], [0, 3, 0]])
    with pytest.raises(RingMismatch):
        v.dot(Vector(Z9, [1, 0, 0]))


def test_vector_pairings_refuse_a_length_mismatch():
    # These once zipped: phi of a 5- and a 7-vector gave 6, tilde of a
    # 9-vector gave 9 entries, and apply padded or cut its argument.
    ctx = FormContext(3)
    seven, five = Vector(F7, [1, 2, 3, 4, 5, 6, 0]), Vector(F7, [1, 2, 3, 4, 5])
    nine = Vector(F7, [1] * 9)
    for pairing in (lambda: ctx.phi(five, seven), lambda: ctx.phi(seven, five),
                    lambda: ctx.quad(five), lambda: ctx.tilde(nine),
                    lambda: seven.dot(five), lambda: seven + five, lambda: five - seven,
                    lambda: Matrix.identity(F7, 3).apply(Vector(F7, [1, 2])),
                    lambda: Matrix.identity(F7, 3).apply(Vector(F7, [1, 2, 3, 4]))):
        with pytest.raises(IndexOutOfRange, match="^vector length"):
            pairing()
    assert ctx.phi(seven, seven) == scalar(F7, 2 * 1 + 2 * (2 * 5 + 3 * 6 + 4 * 0))
    assert Matrix.identity(F7, 3).apply(Vector(F7, [1, 2, 3])).comps == [1, 2, 3]


def test_gram_matrix_odd_n2():
    ctx = FormContext(2)
    g = gram(ctx, QQ)
    expected = matrix(
        QQ,
        [
            [2, 0, 0, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
        ],
    )
    assert g == expected


def test_form_context_indexing():
    ctx = FormContext(3)
    assert ctx.dim == 7
    assert [ctx.u(i) for i in (1, 2, 3)] == [1, 2, 3]
    assert [ctx.v(i) for i in (1, 2, 3)] == [4, 5, 6]
    assert ctx.delta(0) == 0
    for i in range(7):
        assert ctx.delta(ctx.delta(i)) == i
    even = FormContext(3, odd=False)
    assert even.dim == 6
    assert [even.u(i) for i in (1, 2, 3)] == [0, 1, 2]
    assert [even.v(i) for i in (1, 2, 3)] == [3, 4, 5]
    for i in range(6):
        assert even.delta(even.delta(i)) == i
    with pytest.raises(IndexOutOfRange):
        ctx.u(4)
    with pytest.raises(IndexOutOfRange):
        FormContext(0)


@pytest.mark.parametrize("odd", [True, False])
def test_phi_quad_tilde_agree_with_gram(odd):
    # quad halves tilde(x).x with the ring's own half, so every ring is run.
    ctx = FormContext(3, odd=odd)
    for desc in RINGS:
        ring = ring_from_string(desc)
        rng = random.Random(f"form:{desc}")
        g = gram(ctx, ring)
        two = Scalar(ring, ring.from_int(2))

        def sample():
            return Vector(ring, [ring.sample(rng) for _ in range(ctx.dim)], copy=False)

        for _ in range(30):
            x, y, z = sample(), sample(), sample()
            # phi through the gram matrix
            assert ctx.phi(x, y) == x.dot(g.apply(y))
            assert ctx.phi(x, y) == ctx.phi(y, x)
            assert ctx.phi(x, x) == two * ctx.quad(x)
            assert ctx.quad(x) == x.dot(g.apply(x)) * Scalar(ring, ring.half)
            assert ctx.tilde(x) == g.apply(x)  # gram is symmetric
            # bilinearity
            assert ctx.phi(x + z, y) == ctx.phi(x, y) + ctx.phi(z, y)


def _delta_matrix(ring, ctx):
    m = Matrix.zeros(ring, ctx.dim)
    for i in range(ctx.dim):
        m.rows[i][ctx.delta(i)] = ring.one
    return m


def test_is_orthogonal_and_inverse():
    ctx = FormContext(2)
    dm = _delta_matrix(QQ, ctx)
    assert is_orthogonal(dm, ctx)
    assert orthogonal_inverse(dm, ctx) @ dm == Matrix.identity(QQ, 5)

    diag = matrix(
        QQ,
        [
            [1, 0, 0, 0, 0],
            [0, 3, 0, 0, 0],
            [0, 0, Scalar(QQ, Fraction(5, 2)), 0, 0],
            [0, 0, 0, Scalar(QQ, Fraction(1, 3)), 0],
            [0, 0, 0, 0, Scalar(QQ, Fraction(2, 5))],
        ],
    )
    assert is_orthogonal(diag, ctx)
    assert orthogonal_inverse(diag, ctx) @ diag == Matrix.identity(QQ, 5)

    # short-root style: I + z*e(u1,u2) - z*e(v2,v1)
    z = scalar(F7, 3)
    m = Matrix.identity(F7, 5)
    m.rows[ctx.u(1)][ctx.u(2)] = z.payload
    m.rows[ctx.v(2)][ctx.v(1)] = (-z).payload
    assert is_orthogonal(m, ctx)
    assert orthogonal_inverse(m, ctx) @ m == Matrix.identity(F7, 5)
    assert m @ orthogonal_inverse(m, ctx) == Matrix.identity(F7, 5)

    bad = Matrix.identity(F7, 5)
    bad.rows[0][1] = 1
    assert not is_orthogonal(bad, ctx)
    with pytest.raises(IndexOutOfRange):
        is_orthogonal(Matrix.identity(F7, 4), ctx)


def test_orthogonal_inverse_even():
    ctx = FormContext(2, odd=False)
    m = Matrix.identity(QQ, 4)
    m.rows[ctx.u(1)][ctx.v(2)] = QQ.from_int(5)
    m.rows[ctx.u(2)][ctx.v(1)] = QQ.from_int(-5)
    assert is_orthogonal(m, ctx)
    assert orthogonal_inverse(m, ctx) @ m == Matrix.identity(QQ, 4)


def test_unitriangular_inverse():
    rng = random.Random(8)
    for ring in (QQ, F7, Z9):
        for _ in range(10):
            m = Matrix.identity(ring, 5)
            for i in range(5):
                for j in range(i + 1, 5):
                    m.rows[i][j] = ring.sample(rng)
            assert m @ unitriangular_inverse(m) == Matrix.identity(ring, 5)
            lo = m.transpose()
            assert unitriangular_inverse(lo) @ lo == Matrix.identity(ring, 5)
    with pytest.raises(NotUnipotent):
        unitriangular_inverse(matrix(F7, [[1, 2], [3, 1]]))
    with pytest.raises(NotUnipotent):
        unitriangular_inverse(matrix(F7, [[2, 1], [0, 1]]))


@pytest.mark.parametrize("desc", RINGS)
def test_unitriangular_inverse_matches_the_series(desc):
    ring = ring_from_string(desc)
    rng = random.Random(desc)
    for d in (1, 2, 5):
        for upper in (True, False):
            for _ in range(3):
                m = Matrix.identity(ring, d)
                for i in range(d):
                    for j in range(i + 1, d) if upper else range(i):
                        m.rows[i][j] = ring.sample(rng)
                assert unitriangular_inverse(m) == unitriangular_series(m)
                assert m @ unitriangular_inverse(m) == Matrix.identity(ring, d)
    bent = Matrix.identity(ring, 3)
    bent.rows[0][2] = bent.rows[2][0] = ring.one
    with pytest.raises(NotUnipotent, match="matrix is not unitriangular"):
        unitriangular_inverse(bent)


def test_monomial_pattern():
    m = matrix(F7, [[0, 2, 0], [0, 0, 3], [4, 0, 0]])
    assert monomial_pattern(m) == [2, 0, 1]
    with pytest.raises(NotMonomial):
        monomial_pattern(matrix(F7, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(NotMonomial):
        monomial_pattern(matrix(Z9, [[3, 0], [0, 1]]))
    with pytest.raises(NotMonomial):
        monomial_pattern(matrix(F7, [[0, 2], [0, 3]]))


def test_one_perp_round_trip():
    rng = random.Random(2)
    m = random_matrix(F7, 4, rng)
    lifted = one_perp(m)
    assert lifted.dim == 5
    assert lifted.rows[0] == [F7.one] + [F7.zero] * 4
    assert [row[0] for row in lifted.rows[1:]] == [F7.zero] * 4
    assert Matrix(F7, [row[1:] for row in lifted.rows[1:]]) == m
    # lifting commutes with multiplication
    m2 = random_matrix(F7, 4, rng)
    assert one_perp(m @ m2) == one_perp(m) @ one_perp(m2)
    with pytest.raises(IndexOutOfRange):
        one_perp(Matrix.identity(F7, 3))


def test_block_helpers_place_and_read_the_u_v_blocks():
    rng = random.Random(8)
    ctx = FormContext(3)
    uu, uv, vu, vv = (random_matrix(F7, 3, rng) for _ in range(4))
    m = embed_blocks(ctx, F7, uu, uv, vu, vv)
    for i in range(3):
        for j in range(3):
            assert m.rows[1 + i][1 + j] == uu.rows[i][j]
            assert m.rows[1 + i][4 + j] == uv.rows[i][j]
            assert m.rows[4 + i][1 + j] == vu.rows[i][j]
            assert m.rows[4 + i][4 + j] == vv.rows[i][j]
    assert m.rows[0] == [F7.one] + [F7.zero] * 6
    assert [row[0] for row in m.rows] == [F7.one] + [F7.zero] * 6
    assert split_blocks(m, ctx) == (uu, uv, vu, vv)
    eye, zero = Matrix.identity(F7, 3), Matrix.zeros(F7, 3)
    assert split_blocks(embed_blocks(ctx, F7, uv=uv), ctx) == (eye, uv, zero, eye)
    with pytest.raises(IndexOutOfRange):
        embed_blocks(ctx, F7, uu=Matrix.identity(F7, 2))
    with pytest.raises(IndexOutOfRange):
        split_blocks(Matrix.identity(F7, 5), ctx)


def test_congruence_and_residue():
    mx = IdealDescriptor("max")
    rng = random.Random(4)
    a = random_matrix(Z9, 3, rng)
    b = a.copy()
    b.rows[1][2] = Z9.add(b.rows[1][2], 3)
    assert matrices_congruent(a, b, mx)
    b.rows[0][0] = Z9.add(b.rows[0][0], 1)
    assert not matrices_congruent(a, b, mx)
    assert matrices_congruent(a, a, IdealDescriptor("zero"))
    assert not matrices_congruent(a, b, IdealDescriptor("zero"))

    F3 = PrimeField(3)
    r = matrix_residue(a)
    assert r.ring == F3
    assert r.rows == [[x % 3 for x in row] for row in a.rows]
    assert matrices_congruent(a, Matrix(Z9, r.rows), mx)
    m7 = random_matrix(F7, 3, rng)
    assert matrix_residue(m7) == m7

    T = ring_from_string("trunc:Fp:5:2")
    mt = matrix(T, [[Scalar(T, (1, 2)), Scalar(T, (0, 1))], [0, 1]])
    rt = matrix_residue(mt)
    assert rt == matrix(PrimeField(5), [[1, 0], [0, 1]])
    back = Matrix(T, [[(x, 0) for x in row] for row in rt.rows])
    assert matrices_congruent(mt, back, mx)
    with pytest.raises(UnsupportedRing):
        matrix_residue(Matrix.identity(ring_from_string("poly:Q"), 2))


def test_congruence_validates_the_ideal_once(monkeypatch):
    calls = [0]
    plain = IdealDescriptor.validate_for

    def counted(self, ring):
        calls[0] += 1
        return plain(self, ring)

    monkeypatch.setattr(IdealDescriptor, "validate_for", counted)
    eye = Matrix.identity(Z9, 25)
    assert matrices_congruent(eye, eye, IdealDescriptor("max"))
    assert calls == [1]
    bent = eye.copy()
    bent.rows[3][4] = 3
    assert matrices_congruent(eye, bent, IdealDescriptor("max"))
    assert not matrices_congruent(eye, bent, IdealDescriptor("zero"))
    assert calls == [3]
    with pytest.raises(UnsupportedRing, match="ideal 'xmult' is undefined for Zpk:3:2"):
        matrices_congruent(eye, eye, IdealDescriptor("xmult"))
    assert calls == [4]


def test_matrix_json_round_trip():
    rng = random.Random(6)
    for desc in ("Q", "Fp:7", "poly:Zpk:3:2", "laurent:Fp:5"):
        ring = ring_from_string(desc)
        m = random_matrix(ring, 3, rng)
        assert Matrix.from_json(m.to_json()) == m
    with pytest.raises(JSONFormatError):
        Matrix.from_json({"ring": "Q", "dim": 2, "entries": [["1"]]})
    with pytest.raises(JSONFormatError):
        Matrix.from_json({"ring": "nope", "dim": 1, "entries": [["1"]]})
    with pytest.raises(JSONFormatError):
        Matrix.from_json({"ring": 5, "dim": 1, "entries": [["1"]]})
    with pytest.raises(JSONFormatError):
        Matrix.from_json({"ring": "Q", "dim": 0, "entries": []})
    with pytest.raises(JSONFormatError):
        Matrix.from_json([1, 2])
