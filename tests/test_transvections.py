"""Tests for transvections, the suite's law checks, and the constructive splittings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthgen.errors import (
    BadWitness,
    HypothesisViolated,
    IndexOutOfRange,
    NotAUnit,
    NotOrthogonalPair,
    RingMismatch,
)
from orthgen.generators import GenLabel, Word, apply_word, eval_word, gen_F, gen_oe, random_word
from orthgen.identity_suite import _law_holds, run_suite
from orthgen.quadratic_space import (
    FormContext,
    Matrix,
    Vector,
    is_orthogonal,
)
from orthgen.rings import ModularRing, PrimeField, RationalField, Scalar, ring_from_string
from orthgen.transvections import (
    OrderIdealWitness,
    TransvectionSpec,
    apply_transvection,
    is_alternating,
    solve_alternating,
    split_w_pair,
    transvection_matrix,
    transvection_split3,
)

from dense_oracle import add, det, orthogonal_inverse, outer, sub, transvection_formula
from sampling import RINGS, random_matrix, scalar

QQ = RationalField()
F5 = PrimeField(5)
F7 = PrimeField(7)
Z9 = ModularRing(3, 2)
CTX3 = FormContext(3)
CTX4 = FormContext(4)
ECTX3 = FormContext(3, odd=False)
LAWS = ("i", "ii", "iii", "iv", "v")


def _vec(ring, comps):
    return Vector(ring, [ring.from_int(c) for c in comps])


def _E(ctx, v, w, x):
    return transvection_matrix(TransvectionSpec(ctx, v, w, x))


def _basis(ring, dim, idx, sign=1):
    comps = [ring.zero] * dim
    comps[idx] = ring.one if sign == 1 else ring.from_int(-1)
    return Vector(ring, comps, copy=False)


def _alternating(ring, rng, n):
    m = Matrix.zeros(ring, n)
    for i in range(n):
        for j in range(i + 1, n):
            s = ring.sample(rng)
            m.rows[i][j] = s
            m.rows[j][i] = ring.neg(s)
    return m


# --- the matrix form -------------------------------------------------------


def test_transvection_zero_parameter_is_identity():
    v = _basis(QQ, 7, CTX3.u(1))
    w = _vec(QQ, [1, 0, 2, 0, 0, 5, -1])
    m = _E(CTX3, v, w, scalar(QQ, 0))
    assert m == Matrix.identity(QQ, 7)


def test_transvection_reduces_when_w_is_isotropic():
    # q(w) = 0 kills the quadratic term, leaving I + x*(v*wt - w*vt).
    v = _basis(QQ, 7, CTX3.u(1))
    w = _basis(QQ, 7, CTX3.u(2))
    x = scalar(QQ, 7)
    tv, tw = CTX3.tilde(v), CTX3.tilde(w)
    expected = add(Matrix.identity(QQ, 7), sub(outer(v, tw), outer(w, tv)).scale(x))
    assert _E(CTX3, v, w, x) == expected


def test_first_family_letters_are_transvections():
    z = scalar(QQ, 5)
    e0 = _basis(QQ, 7, 0, sign=-1)
    for i in (1, 2, 3):
        left = gen_F(CTX3, "F1", i, None, z)
        assert left == _E(CTX3, _basis(QQ, 7, CTX3.u(i)), e0, z)
        left = gen_F(CTX3, "F2", i, None, z)
        assert left == _E(CTX3, _basis(QQ, 7, CTX3.v(i)), e0, z)


def test_even_letters_are_transvections():
    z = scalar(F7, 3)
    for i, j in ((1, 3), (2, 6), (4, 2)):
        v = _basis(F7, 6, i - 1)
        w = _basis(F7, 6, ECTX3.delta(j - 1))
        assert gen_oe(ECTX3, i, j, z) == _E(ECTX3, v, w, z)


def test_transvection_is_orthogonal_with_unit_determinant():
    rng = random.Random(11)
    for ring in (QQ, F7, Z9):
        for _ in range(8):
            b = ring.sample(rng)
            v = Vector(ring, [ring.zero] * 7)
            v.comps[CTX3.u(1)] = ring.one
            v.comps[CTX3.u(2)] = b
            w = Vector(ring, [ring.sample(rng) for _ in range(7)])
            # phi(v, w) only sees w through the paired v-slots.
            w.comps[CTX3.v(1)] = ring.neg(ring.mul(b, w.comps[CTX3.v(2)]))
            x = Scalar(ring, ring.sample(rng))
            m = _E(CTX3, v, w, x)
            assert is_orthogonal(m, CTX3)
            assert det(m) == 1
            assert orthogonal_inverse(m, CTX3) == _E(CTX3, v, w, -x)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.integers(min_value=0, max_value=6), min_size=8, max_size=8),
    x1=st.integers(min_value=0, max_value=6),
    x2=st.integers(min_value=0, max_value=6),
)
def test_transvection_additive_in_parameter(data, x1, x2):
    b, w_raw = data[0], data[1:]
    v = Vector(F7, [F7.zero] * 7)
    v.comps[CTX3.u(1)] = F7.one
    v.comps[CTX3.u(2)] = F7.from_int(b)
    w = _vec(F7, w_raw)
    w.comps[CTX3.v(1)] = F7.neg(F7.mul(F7.from_int(b), w.comps[CTX3.v(2)]))
    a1, a2 = scalar(F7, x1), scalar(F7, x2)
    lhs = _E(CTX3, v, w, a1) @ _E(CTX3, v, w, a2)
    assert lhs == _E(CTX3, v, w, a1 + a2)


def _random_frame(ctx, ring, rng):
    """A dense orthogonal matrix: a random word of F letters, or OE letters when even."""
    if ctx.odd:
        return eval_word(random_word(ctx, ring, rng, 8))
    letters = []
    while len(letters) < 8:
        i, j = rng.randrange(1, ctx.dim + 1), rng.randrange(1, ctx.dim + 1)
        if j != i and j - 1 != ctx.delta(i - 1):
            letters.append(GenLabel("OE", i, j, Scalar(ring, ring.sample(rng))))
    return eval_word(Word(ctx, ring, letters))


def _kernel_data(ctx, ring, frame, rng):
    """(v, w) pairs with q(v) = phi(v, w) = 0, images under frame of basis combinations.

    frame preserves the form, so q and phi are read off the combinations:
    w = u_2 keeps q(w) = 0, w = u_2 + v_2 (and the center, when odd)
    gives q(w) = 1.
    """
    def col(*idxs):
        comps = [ring.zero] * ctx.dim
        for idx in idxs:
            comps[idx] = ring.add(comps[idx], ring.one)
        return frame.apply(Vector(ring, comps, copy=False))

    v = col(ctx.u(1)).scale(Scalar(ring, ring.sample_unit(rng)))
    ws = [col(ctx.u(2)), col(ctx.u(2), ctx.v(2))] + ([col(0)] if ctx.odd else [])
    return [(v, w.scale(Scalar(ring, ring.sample_unit(rng)))) for w in ws]


@pytest.mark.parametrize("desc", RINGS)
@pytest.mark.parametrize("ctx", [CTX3, ECTX3], ids=["odd", "even"])
def test_kernel_matches_the_dense_formula(desc, ctx):
    ring = ring_from_string(desc)
    rng = random.Random(f"{desc}:{ctx.odd}")
    seen = set()
    for dense_frame in (False, True):
        for _ in range(2):
            frame = _random_frame(ctx, ring, rng) if dense_frame else Matrix.identity(ring, ctx.dim)
            for v, w in _kernel_data(ctx, ring, frame, rng):
                x = Scalar(ring, ring.sample(rng))
                dense = transvection_formula(ctx, v, w, x)
                spec = TransvectionSpec(ctx, v, w, x)
                assert transvection_matrix(spec) == dense
                m = random_matrix(ring, ctx.dim, rng)
                for left in (True, False):
                    out = m.copy()
                    apply_transvection(out, spec, left)
                    assert out == (dense @ m if left else m @ dense)
                support = sum(not ring.is_zero(c) for c in v.comps + w.comps)
                seen.add((ctx.quad(w) == 0, support > 4))
    assert seen == {(q, wide) for q in (True, False) for wide in (True, False)}


def _hypothesis_cases(ctx):
    eu = _basis(QQ, ctx.dim, ctx.u(1))
    ev = _basis(QQ, ctx.dim, ctx.v(1))
    eu_plus_v = _basis(QQ, ctx.dim, ctx.u(2)) + _basis(QQ, ctx.dim, ctx.v(2))
    one = scalar(QQ, 1)
    return [
        (RingMismatch, "transvection data must share one ring",
         (eu, _basis(F7, ctx.dim, ctx.u(2)), scalar(F7, 1))),
        (IndexOutOfRange, f"vectors must have length {ctx.dim}",
         (_basis(QQ, ctx.dim + 2, 1), _basis(QQ, ctx.dim + 2, 2), one)),
        (IndexOutOfRange, f"vectors must have length {ctx.dim}",
         (eu, _basis(QQ, ctx.dim - 2, 2), one)),
        (HypothesisViolated, r"q\(v\) must vanish", (eu_plus_v, eu, one)),
        (HypothesisViolated, r"phi\(v, w\) must vanish", (eu, ev, one)),
    ]


def test_transvection_hypothesis_checks():
    for ctx in (CTX3, ECTX3):
        for cls, message, args in _hypothesis_cases(ctx):
            with pytest.raises(cls, match=message):
                TransvectionSpec(ctx, *args)


def test_kernel_rejects_a_matrix_of_the_wrong_shape_or_ring():
    spec = TransvectionSpec(CTX3, _basis(QQ, 7, CTX3.u(1)), _basis(QQ, 7, CTX3.u(2)), scalar(QQ, 1))
    for left in (True, False):
        for m, cls in ((Matrix.identity(QQ, 5), IndexOutOfRange),
                       (Matrix.identity(F7, 5), IndexOutOfRange),
                       (Matrix.identity(F7, 7), RingMismatch)):
            before = m.copy()
            with pytest.raises(cls):
                apply_transvection(m, spec, left)
            assert m == before


def test_the_kernel_checks_no_hypothesis(monkeypatch):
    frame = _random_frame(CTX3, QQ, random.Random(8))
    v, w = _kernel_data(CTX3, QQ, frame, random.Random(9))[1]
    spec = TransvectionSpec(CTX3, v, w, scalar(QQ, 3))
    calls = {"phi": 0, "quad": 0}
    for name in calls:
        plain = getattr(FormContext, name)

        def counted(self, *args, name=name, plain=plain):
            calls[name] += 1
            return plain(self, *args)

        monkeypatch.setattr(FormContext, name, counted)
    m = random_matrix(QQ, 7, random.Random(10))
    for left in (True, False):
        calls.update(phi=0, quad=0)
        apply_transvection(m, spec, left)
        # q(w) feeds the correction term; q(v) and phi(v, w) are not re-read.
        assert calls == {"phi": 0, "quad": 1}


# --- the five laws ---------------------------------------------------------


def _law_data(ring, rng, ctx):
    # u, v sit in the totally isotropic span of the first two u-columns;
    # w is supported on the center and the third u-column, so every
    # pairing against u and v vanishes while q(w) = w0^2 stays nonzero.
    def from_plane():
        comps = [ring.zero] * ctx.dim
        comps[ctx.u(1)] = ring.sample(rng)
        comps[ctx.u(2)] = ring.sample(rng)
        return Vector(ring, comps, copy=False)

    u, v = from_plane(), from_plane()
    w = Vector(ring, [ring.zero] * ctx.dim)
    w.comps[0] = ring.sample(rng)
    w.comps[ctx.u(3)] = ring.sample(rng)
    a = Scalar(ring, ring.sample(rng))
    b = Scalar(ring, ring.sample(rng))
    return u, v, w, a, b


def test_laws_hold_on_admissible_data():
    rng = random.Random(23)
    for ring in (QQ, F7, Z9):
        for _ in range(6):
            u, v, w, a, b = _law_data(ring, rng, CTX3)
            lam = Scalar(ring, ring.sample_unit(rng))
            alpha = eval_word(random_word(CTX3, ring, rng, 6)).scale(lam)
            assert all(_law_holds(k, CTX3, u, v, w, a, b, alpha) for k in LAWS)
    report = run_suite([f"L2.3.{k}" for k in LAWS], 23, 10)
    assert report.total_failures == 0


def test_law_hypotheses_raise():
    # A violated hypothesis is refused by the spec of the factor that
    # needs it; run_suite records the error like any other item's.
    u, v, w, a, b = _law_data(QQ, random.Random(1), CTX3)
    for key in ("i", "ii", "iii", "iv"):
        with pytest.raises(HypothesisViolated, match=r"q\(v\) must vanish"):
            _law_holds(key, CTX3, _basis(QQ, 7, 0), v, w, a, b, None)
        with pytest.raises(HypothesisViolated, match="must vanish"):
            _law_holds(key, CTX3, _basis(QQ, 7, CTX3.u(1)), _basis(QQ, 7, CTX3.v(1)), w, a, b, None)

    shear = Matrix.identity(QQ, 7)
    shear.rows[0][1] = QQ.one
    with pytest.raises(HypothesisViolated, match="alpha is not a similitude"):
        _law_holds("v", CTX3, u, v, w, a, b, shear)
    three = Matrix.identity(Z9, 7).scale(scalar(Z9, 3))
    u9, v9, w9, a9, b9 = _law_data(Z9, random.Random(2), CTX3)
    with pytest.raises(NotAUnit):
        _law_holds("v", CTX3, u9, v9, w9, a9, b9, three)


# --- alternating solver ----------------------------------------------------


def test_solve_alternating_concrete():
    v = _vec(QQ, [1, 2, 3])
    w = _vec(QQ, [3, 0, -1])
    witness = OrderIdealWitness(
        scalar(QQ, 3), [scalar(QQ, 1), scalar(QQ, 0), scalar(QQ, 0)], [w[0], w[1], w[2]]
    )
    alpha = solve_alternating(v, w, witness)
    assert is_alternating(alpha)
    assert alpha.apply(w) == v.scale(scalar(QQ, 3))


def test_solve_alternating_random():
    rng = random.Random(37)
    for ring in (F7, Z9):
        for _ in range(10):
            m = 5
            w = Vector(ring, [ring.sample(rng) for _ in range(m)])
            v = _alternating(ring, rng, m).apply(w)
            combiners = [Scalar(ring, ring.sample(rng)) for _ in range(m)]
            acc = ring.zero
            for c, e in zip(combiners, w.comps):
                acc = ring.add(acc, ring.mul(c.payload, e))
            target = Scalar(ring, acc)
            witness = OrderIdealWitness(target, combiners, [w[i] for i in range(m)])
            alpha = solve_alternating(v, w, witness)
            assert is_alternating(alpha)
            assert alpha.apply(w) == v.scale(target)


def test_solve_alternating_errors():
    v = _vec(QQ, [1, 0, 0])
    with pytest.raises(NotOrthogonalPair):
        solve_alternating(v, v, OrderIdealWitness(scalar(QQ, 0), [], []))
    w = _vec(QQ, [0, 1, 0])
    with pytest.raises(BadWitness):
        OrderIdealWitness(scalar(QQ, 5), [scalar(QQ, 1)], [scalar(QQ, 1)])
    witness = OrderIdealWitness(scalar(QQ, 2), [scalar(QQ, 2)], [scalar(QQ, 1)])
    with pytest.raises(BadWitness):
        solve_alternating(v, w, witness)


# --- three-factor splitting ------------------------------------------------


def _split3_spec(ring, vp, vdp, wp, x, v0=0, w0=0, wdp=None):
    v = _vec(ring, [v0] + vp + vdp)
    w = _vec(ring, [w0] + wp + (wdp or [0] * len(wp)))
    return TransvectionSpec(FormContext(len(vp)), v, w, Scalar(ring, ring.from_int(x)))


def _split3_product(spec):
    """E(first) * eval(word) for the splitting of spec, applied as a transvection and letters."""
    first, word = transvection_split3(spec)
    m = transvection_matrix(first)
    apply_word(m, word)
    return m


def test_split3_zero_parameter_gives_identities():
    spec = _split3_spec(QQ, [1, 2, 3], [3, 0, -1], [0, 1, 0], 0)
    first, word = transvection_split3(spec)
    assert transvection_matrix(first) == Matrix.identity(QQ, 7)
    assert word.letters == ()


def test_split3_recomposes_and_block_shapes():
    spec = _split3_spec(QQ, [1, 2, 3], [3, 0, -1], [0, 1, 0], 5)
    first, word = transvection_split3(spec)
    assert _split3_product(spec) == transvection_matrix(spec)
    # first is block diagonal with inverse-transpose lower block.
    m1 = transvection_matrix(first)
    upper = Matrix(QQ, [[m1.rows[1 + i][1 + j] for j in range(3)] for i in range(3)])
    lower = Matrix(QQ, [[m1.rows[4 + i][4 + j] for j in range(3)] for i in range(3)])
    assert upper.transpose() @ lower == Matrix.identity(QQ, 3)
    assert upper != Matrix.identity(QQ, 3)
    off = [(r, c) for r in range(7) for c in range(7)
           if (r == 0) != (c == 0) or (r and c and (r <= 3) != (c <= 3))]
    assert all(QQ.is_zero(m1.rows[r][c]) for r, c in off)
    # borders vanish when v0 = w0 = 0: only the middle block's F4 letters
    assert word.letters and {l.family for l in word.letters} == {"F4"}


def test_split3_nilpotent_centers():
    spec = _split3_spec(Z9, [1, 2, 3], [3, 0, -1], [0, 1, 0], 4, v0=3, w0=3)
    _, word = transvection_split3(spec)
    assert {"F1", "F2"} <= {l.family for l in word.letters}
    assert _split3_product(spec) == transvection_matrix(spec)


def test_split3_random_isotropic_data():
    # L4.6's draws, with centers of square zero: 0 over a field, any
    # multiple of 3 over Z/9, where the border letters show up.
    rng = random.Random(51)
    for ring in (QQ, F5, Z9):
        centers = [ring.zero] + ([3, 6] if ring is Z9 else [])
        letters = set()
        for _ in range(12):
            gamma = _alternating(ring, rng, 4)
            gamma2 = _alternating(ring, rng, 4)
            vp = Vector(ring, [ring.sample(rng) for _ in range(4)])
            vdp = gamma.apply(vp)
            wp = gamma2.apply(vdp)
            v = Vector(ring, [rng.choice(centers)] + vp.comps + vdp.comps)
            w = Vector(ring, [rng.choice(centers)] + wp.comps + [ring.zero] * 4)
            x = Scalar(ring, ring.sample(rng))
            spec = TransvectionSpec(CTX4, v, w, x)
            assert _split3_product(spec) == transvection_formula(CTX4, v, w, x)
            letters |= {l.family for l in transvection_split3(spec)[1].letters}
        assert letters == ({"F1", "F2", "F4"} if ring is Z9 else {"F4"})


def test_split3_hypothesis_checks():
    # A valid spec, phi(v, w) = v'.w'' + v''.w' = 0, but with w'' != 0.
    spec = _split3_spec(QQ, [1, 2, 3], [3, 0, -1], [0, 1, 0], 1, wdp=[3, 0, -1])
    with pytest.raises(HypothesisViolated, match="w'' must vanish"):
        transvection_split3(spec)

    spec = _split3_spec(QQ, [1, 0, 0], [-1, 0, 0], [0, 0, 1], 1, v0=1)
    with pytest.raises(HypothesisViolated, match=r"v0\^2 must vanish"):
        transvection_split3(spec)
    even = TransvectionSpec(ECTX3, _basis(QQ, 6, 0), _basis(QQ, 6, 1), scalar(QQ, 1))
    with pytest.raises(IndexOutOfRange):
        transvection_split3(even)


# --- splitting w against an order-ideal witness -----------------------------


def test_split_w_pair_degenerate_alpha():
    v = _vec(QQ, [0, 0, 0, 0, 2, 5, 1])
    w = _vec(QQ, [0, 0, 0, 0, 4, -1, 6])
    alpha = Matrix.zeros(QQ, 4)
    w1, w2 = split_w_pair(v, w, scalar(QQ, 1), alpha)
    assert w1 == _vec(QQ, [0, 0, 0, 0, 4, -1, 6])
    assert w2 == _vec(QQ, [0, 0, 0, 0, 0, 0, 0])


def _split_pair_data(ring, rng, n):
    # v0 = w0 = 0 and a witness with no center coefficient, so the
    # first-row compatibility holds by construction.
    gamma = _alternating(ring, rng, n)
    gamma2 = _alternating(ring, rng, n)
    vp_comps = [ring.one] + [ring.sample(rng) for _ in range(n - 1)]
    vp = Vector(ring, vp_comps)
    vdp = gamma.apply(vp)
    wp = Vector(ring, [ring.sample(rng) for _ in range(n)])
    s = ring.neg(vdp.dot(wp).payload)
    wdp = gamma2.apply(vp)
    wdp.comps[0] = ring.add(wdp.comps[0], s)
    v = Vector(ring, [ring.zero] + vp.comps + vdp.comps)
    w = Vector(ring, [ring.zero] + wp.comps + wdp.comps)

    combiners = [Scalar(ring, ring.zero)] + [
        Scalar(ring, ring.sample(rng)) for _ in range(n)
    ]
    a_col = Vector(ring, [ring.zero] + list(vdp.comps))
    b_col = Vector(ring, [ring.zero] + list(vp.comps))
    acc = ring.zero
    for c, e in zip(combiners, a_col.comps):
        acc = ring.add(acc, ring.mul(c.payload, e))
    y = Scalar(ring, acc)
    witness = OrderIdealWitness(y, combiners, [a_col[i] for i in range(n + 1)])
    alpha = solve_alternating(b_col, a_col, witness)
    return v, w, y, alpha


def test_split_w_pair_random_admissible():
    rng = random.Random(67)
    ctx = CTX4
    for ring in (F7, Z9):
        for _ in range(8):
            v, w, y, alpha = _split_pair_data(ring, rng, 4)
            w1, w2 = split_w_pair(v, w, y, alpha)
            scaled = w.scale(y)
            assert w1 + w2 == scaled
            assert ctx.phi(v, w1) == 0
            assert ctx.phi(v, w2) == 0
            assert all(ring.is_zero(c) for c in w2.comps[ctx.n + 1:])

            x1 = Scalar(ring, ring.sample(rng))
            whole = _E(ctx, v, scaled, x1)
            assert whole == _E(ctx, v, w1, x1) @ _E(ctx, v, w2, x1)
            assert whole == _E(ctx, v, w, x1 * y)


def test_split_w_pair_rejects_bad_inputs():
    v = _vec(QQ, [0, 0, 0, 0, 2, 5, 1])
    w = _vec(QQ, [0, 0, 0, 0, 4, -1, 6])
    with pytest.raises(HypothesisViolated):
        split_w_pair(v, w, scalar(QQ, 1), Matrix.identity(QQ, 4))

    w_safe = _vec(QQ, [0, 0, 0, 0, 0, -1, 6])
    v_live = _vec(QQ, [0, 1, 0, 0, 0, 0, 0])
    with pytest.raises(HypothesisViolated):
        # alpha * (0, v'') = 0 cannot reach (0, v') * y.
        split_w_pair(v_live, w_safe, scalar(QQ, 1), Matrix.zeros(QQ, 4))

    w_center = _vec(QQ, [1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(HypothesisViolated):
        # first-row compatibility: w0*y = 1 but alpha_0 = 0.
        split_w_pair(v, w_center, scalar(QQ, 1), Matrix.zeros(QQ, 4))

    v_bad0 = _vec(QQ, [1, 1, 0, 0, -1, 0, 0])
    with pytest.raises(HypothesisViolated):
        split_w_pair(v_bad0, w_safe, scalar(QQ, 0), Matrix.zeros(QQ, 4))

    with pytest.raises(IndexOutOfRange):
        split_w_pair(v, w, scalar(QQ, 1), Matrix.zeros(QQ, 5))
    for short in (_vec(QQ, [0, 0, 0, 0, 0]), _vec(QQ, [0, 0, 0, 0, 0, 0])):
        with pytest.raises(IndexOutOfRange):
            split_w_pair(v, short, scalar(QQ, 1), Matrix.zeros(QQ, 4))
    with pytest.raises(IndexOutOfRange):
        split_w_pair(_vec(QQ, [0] * 6), _vec(QQ, [0] * 6), scalar(QQ, 1), Matrix.zeros(QQ, 4))


def test_split_w_pair_checks_the_transvection_hypotheses():
    # q(v) = 1 and phi(v, w) = 1 together: q(v) is reported first.
    v = _vec(QQ, [0, 1, 0, 0, 1, 0, 0])
    w = _vec(QQ, [0, 1, 0, 0, 0, 0, 0])
    zero = Matrix.zeros(QQ, 4)
    with pytest.raises(HypothesisViolated, match=r"^q\(v\) must vanish$"):
        split_w_pair(v, w, scalar(QQ, 1), zero)
    v = _vec(QQ, [0, 1, 0, 0, 0, 0, 0])
    with pytest.raises(HypothesisViolated, match=r"^phi\(v, w\) must vanish$"):
        split_w_pair(v, _vec(QQ, [0, 0, 0, 0, 1, 0, 0]), scalar(QQ, 1), zero)


# --- spec objects and JSON --------------------------------------------------


def test_spec_constructor_checks():
    v = _basis(F7, 7, CTX3.u(1))
    w = _basis(F7, 7, CTX3.u(2))
    spec = TransvectionSpec(CTX3, v, w, scalar(F7, 2))
    assert spec.ctx is CTX3 and (spec.v, spec.w) == (v, w)
    assert spec.v is not v and spec.w is not w
    with pytest.raises(HypothesisViolated):
        TransvectionSpec(CTX3, _basis(F7, 7, 0), w, scalar(F7, 2))
    with pytest.raises(HypothesisViolated):
        TransvectionSpec(CTX3, v, _basis(F7, 7, CTX3.v(1)), scalar(F7, 2))
    with pytest.raises(RingMismatch):
        TransvectionSpec(CTX3, v, w, scalar(QQ, 2))
    with pytest.raises(IndexOutOfRange):
        TransvectionSpec(CTX3, v, _basis(F7, 5, 1), scalar(F7, 2))
    with pytest.raises(IndexOutOfRange):
        TransvectionSpec(CTX4, v, w, scalar(F7, 2))
    with pytest.raises(IndexOutOfRange):
        TransvectionSpec(ECTX3, v, w, scalar(F7, 2))


def test_spec_keeps_its_own_vectors():
    # Changing the caller's vectors after the one check must not reach
    # the spec: here v would get q(v) = 1 and E would leave the group.
    v = _basis(QQ, 7, CTX3.u(1))
    w = _basis(QQ, 7, CTX3.u(2))
    spec = TransvectionSpec(CTX3, v, w, scalar(QQ, 3))
    expected = transvection_formula(CTX3, v, w, scalar(QQ, 3))
    v.comps[CTX3.v(1)] = QQ.one
    w.comps[0] = QQ.one
    assert spec.v == _basis(QQ, 7, CTX3.u(1)) and spec.w == _basis(QQ, 7, CTX3.u(2))
    assert transvection_matrix(spec) == expected
    assert is_orthogonal(transvection_matrix(spec), CTX3)


def test_spec_json_round_trip():
    spec = TransvectionSpec(CTX3, _basis(Z9, 7, CTX3.u(1)), Vector(Z9, [Z9.zero] * 7), scalar(Z9, 5))
    blob = spec.to_json()
    zero, one = {"mod": 9, "val": 0}, {"mod": 9, "val": 1}
    assert blob == {
        "ring": "Zpk:3:2",
        "n": 3,
        "odd": True,
        "v": [zero, one, zero, zero, zero, zero, zero],
        "w": [zero] * 7,
        "x": {"mod": 9, "val": 5},
    }
