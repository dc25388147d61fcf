"""The sparse letter kernel against the dense letter products it replaced.

apply_word on a one-letter word must give exactly letter_matrix(...) @ M
on the left and M @ letter_matrix(...) on the right, for every letter
family, both exponents and every ring kind.  A letter the dense path
refuses is refused with the same error class when its Word is built,
and a counting guard keeps the letter check at that one place: the
field decomposition checks each letter of its result once, and its
recomposition checks none; the local decomposition and its
recomposition apply their words in turn, building no product word that
re-checks them, and each record splits its core once, when it is built.  apply_word checks the matrix's size and
ring.  The product-free form test is_orthogonal is checked against
M^T * gram * M == gram.  A counting guard keeps dense products out of
word evaluation, both decompositions, their recomposition, the
certificate check, unitriangular inversion, the triangular block
factorization and the identity suite's transvection, splitting,
commutator and conjugation items, and form tests out of the field
decomposition.  The
similitude multiplier read by pairing columns is checked against the
gram transport.  The local decomposition, which carries its monomial
core as PERM and DIAG letters, is checked against the dense
formulas for its residual and its recomposition.
"""

import random

import pytest

from orthgen import decompose, generators
from orthgen.decompose import (
    HorrocksInstance,
    check_horrocks_instance,
    factor_to,
    local_decompose,
    mo_split,
    tmt_decompose,
)
from orthgen.errors import (
    BadIndex,
    BadSign,
    IndexOutOfRange,
    NotAUnit,
    NotDeltaCommuting,
    OrthgenError,
    RingMismatch,
    UnsupportedRing,
)
from orthgen.generators import (
    F_FAMILIES,
    GenLabel,
    Word,
    apply_word,
    diag_orthogonal,
    eval_word,
    gen_F,
    perm_matrix,
    random_word,
)
from orthgen.identity_suite import run_suite
from orthgen.quadratic_space import (
    FormContext,
    Matrix,
    embed_blocks,
    is_orthogonal,
    similitude_multiplier,
    unitriangular_inverse,
)
from orthgen.rings import LaurentRing, PolynomialRing, Scalar, laurent_of_poly, ring_from_string

from dense_oracle import gram, letter_matrix, orthogonal_inverse
from sampling import RINGS, random_matrix, random_perm

ODD = FormContext(3)
EVEN = FormContext(3, odd=False)


def _scalar(ring, rng):
    return Scalar(ring, ring.sample(rng))


def _letters(ctx, ring, rng):
    """One letter of every family that lives in ctx over ring, both exponents."""
    out = []
    if ctx.odd:
        for fam in F_FAMILIES:
            i, j = (2, None) if fam in ("F1", "F2") else (3, 1)
            out.append(GenLabel(fam, i, j, _scalar(ring, rng)))
        d0 = Scalar(ring, ring.neg(ring.one) if rng.randrange(2) else ring.one)
        d = tuple(Scalar(ring, ring.sample_unit(rng)) for _ in range(ctx.n))
        out.append(GenLabel("DIAG", param=(d0, d)))
    else:
        out.append(GenLabel("OE", 1, 5, _scalar(ring, rng)))
        out.append(GenLabel("OE", 6, 2, _scalar(ring, rng)))
    out.append(GenLabel("PERM", param=random_perm(ctx, rng)))
    if isinstance(ring, (PolynomialRing, LaurentRing)):
        out.append(GenLabel("THETA", param=None))
        out.append(GenLabel("THETA", param=rng.randrange(ctx.dim + 1)))
    inverses = [l.inverse() for l in out]
    if not isinstance(ring, LaurentRing):
        inverses = [l for l in inverses if l.family != "THETA"]
    return out + inverses


def _kernel(ctx, m, letter, left):
    out = m.copy()
    apply_word(out, Word(ctx, m.ring, [letter]), left)
    return out


@pytest.mark.parametrize("desc", RINGS)
@pytest.mark.parametrize("ctx", [ODD, EVEN], ids=["odd", "even"])
def test_kernel_matches_dense_letter_products(desc, ctx):
    ring = ring_from_string(desc)
    rng = random.Random(f"{desc}:{ctx.odd}")
    families = set()
    for _ in range(3):
        for letter in _letters(ctx, ring, rng):
            dense = letter_matrix(ctx, ring, letter)
            m = random_matrix(ring, ctx.dim, rng)
            before = m.copy()
            assert _kernel(ctx, m, letter, left=True) == dense @ m, letter
            assert _kernel(ctx, m, letter, left=False) == m @ dense, letter
            assert m == before
            families.add((letter.family, letter.exp))
    expected = {"PERM"} | (set(F_FAMILIES) | {"DIAG"} if ctx.odd else {"OE"})
    if isinstance(ring, (PolynomialRing, LaurentRing)):
        expected.add("THETA")
    assert {fam for fam, _ in families} == expected
    assert {exp for _, exp in families} == {1, -1}


def test_kernel_reads_the_live_term_table(monkeypatch):
    ring = ring_from_string("Fp:7")
    rng = random.Random(5)
    original = generators._F_TERMS
    z = Scalar(ring, 3)
    for family in sorted(original):
        i, j = (1, None) if family in ("F1", "F2") else (1, 2)
        letter = GenLabel(family, i, j, z)
        unmutated = letter_matrix(ODD, ring, letter)
        for idx in range(len(original[family])):
            mutated = dict(original)
            terms = list(mutated[family])
            row, col, coeff, power = terms[idx]
            terms[idx] = (row, col, -coeff, power)
            mutated[family] = tuple(terms)
            monkeypatch.setattr(generators, "_F_TERMS", mutated)
            dense = letter_matrix(ODD, ring, letter)
            assert dense != unmutated
            assert gen_F(ODD, family, i, j, z) == dense
            m = random_matrix(ring, ODD.dim, rng)
            assert _kernel(ODD, m, letter, left=True) == dense @ m
            assert _kernel(ODD, m, letter, left=False) == m @ dense
            monkeypatch.setattr(generators, "_F_TERMS", original)


def _bad_letters():
    Z9 = ring_from_string("Zpk:3:2")
    PQ = ring_from_string("poly:Q")
    LQ = ring_from_string("laurent:Q")
    two, one = Scalar(Z9, 2), Scalar(Z9, 1)
    return [
        ("diag center squares to 4", ODD, Z9, GenLabel("DIAG", param=(two, (one, one, one))), BadSign),
        ("diag non-unit", ODD, Z9, GenLabel("DIAG", param=(one, (one, Scalar(Z9, 3), one))), NotAUnit),
        ("diag non-unit inverse", ODD, Z9,
         GenLabel("DIAG", param=(one, (one, one, Scalar(Z9, 6))), exp=-1), NotAUnit),
        ("diag short", ODD, Z9, GenLabel("DIAG", param=(one, (one, one))), BadIndex),
        ("diag even", EVEN, Z9, GenLabel("DIAG", param=(one, (one, one, one))), BadIndex),
        ("theta inverse over poly", ODD, PQ, GenLabel("THETA", param=4, exp=-1), UnsupportedRing),
        ("theta over Z9", ODD, Z9, GenLabel("THETA", param=4), UnsupportedRing),
        ("theta slot count", ODD, LQ, GenLabel("THETA", param=8), BadIndex),
        ("perm not delta-commuting", ODD, Z9, GenLabel("PERM", param=(1, 3, 2, 4, 5, 6, 7)),
         NotDeltaCommuting),
        ("perm not a permutation", ODD, Z9, GenLabel("PERM", param=(1, 1, 2, 4, 5, 6, 7)), BadIndex),
        ("oe degenerate", EVEN, Z9, GenLabel("OE", 1, 4, one), BadIndex),
        ("oe in odd context", ODD, Z9, GenLabel("OE", 1, 2, one), BadIndex),
        ("f index", ODD, Z9, GenLabel("F3", 2, 2, one), BadIndex),
        ("f ring", ODD, Z9, GenLabel("F1", 1, None, Scalar(PQ, PQ.one)), RingMismatch),
    ]


def _raised(fn):
    try:
        fn()
    except OrthgenError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize(
    "ctx, ring, letter, expected", [pytest.param(*case[1:], id=case[0]) for case in _bad_letters()])
def test_bad_letters_raise_like_the_dense_path(ctx, ring, letter, expected):
    assert _raised(lambda: letter_matrix(ctx, ring, letter)) is expected
    assert _raised(lambda: Word(ctx, ring, [letter])) is expected
    for left in (True, False):
        m = Matrix.identity(ring, ctx.dim)
        assert _raised(lambda: apply_word(m, Word(ctx, ring, [letter]), left)) is expected
        assert m == Matrix.identity(ring, ctx.dim)


def test_apply_word_checks_the_matrix_size_then_its_ring():
    Z9, F5 = ring_from_string("Zpk:3:2"), ring_from_string("Fp:5")
    word = Word(ODD, Z9, [GenLabel("F1", 1, None, Scalar(Z9, 2))])
    for left in (True, False):
        for ring, dim, error in ((Z9, 8, IndexOutOfRange), (F5, 8, IndexOutOfRange),
                                 (F5, 7, RingMismatch), (Z9, 7, None)):
            assert _raised(lambda: apply_word(Matrix.identity(ring, dim), word, left)) is error
    with pytest.raises(RingMismatch):
        apply_word(Matrix.identity(F5, 7), Word(ODD, Z9))


def test_each_letter_is_checked_once_when_its_word_is_built(monkeypatch):
    F5 = ring_from_string("Fp:5")
    ctx = FormContext(12)
    rng = random.Random(12)
    alpha = eval_word(random_word(ctx, F5, rng, 48)) @ perm_matrix(ctx, F5, random_perm(ctx, rng))
    checks = [0]
    plain = generators._validate_letter

    def counted(*args):
        checks[0] += 1
        return plain(*args)

    monkeypatch.setattr(generators, "_validate_letter", counted)
    dec = tmt_decompose(alpha, ctx)
    # tau1, tau2 and the PERM and DIAG letters of the certified core
    assert checks[0] == len(dec.tau1) + len(dec.tau2) + 2
    assert len(dec.tau1) + len(dec.tau2) > 48
    checks[0] = 0
    assert dec.recompose() == alpha
    assert checks[0] == 0


def test_the_local_path_applies_its_factors_in_turn(monkeypatch):
    Z9 = ring_from_string("Zpk:3:2")
    ctx = FormContext(8)
    alpha = eval_word(random_word(ctx, Z9, random.Random(5), 32))
    checks = [0]
    splits = [0]
    plain = generators._validate_letter
    plain_split = decompose.mo_split

    def counted(*args):
        checks[0] += 1
        return plain(*args)

    def counted_split(*args):
        splits[0] += 1
        return plain_split(*args)

    monkeypatch.setattr(generators, "_validate_letter", counted)
    monkeypatch.setattr(decompose, "mo_split", counted_split)
    dec = local_decompose(alpha, ctx)
    # The residue's record and its core (k + 2 letters, k the tower
    # letters), the lifted words and their inverses, and the lifted
    # record's core; no product word re-checks them.
    k = len(dec.tau1) + len(dec.tau2)
    assert (k, checks[0]) == (61, 3 * (k + 2) + 2) == (61, 191)
    # Each record splits its core once, when it is built.
    assert splits[0] == 2
    checks[0] = splits[0] = 0
    assert dec.recompose() == alpha
    # The record applies the core it holds: no letter is checked again.
    assert (checks[0], splits[0]) == (0, 0)


def _two_products(m, ctx):
    g = gram(ctx, m.ring)
    return m.transpose() @ g @ m == g


def _position_classes(ctx):
    """Every (row, column) of ctx's matrices, sorted by how the form pairs them."""
    d = ctx.dim
    classes = {"diagonal": [], "partner": [], "off-pair": []}
    if ctx.odd:
        classes["center row"] = [(0, c) for c in range(1, d)]
        classes["center column"] = [(r, 0) for r in range(1, d)]
    for r in range(1 if ctx.odd else 0, d):
        for c in range(1 if ctx.odd else 0, d):
            if r == c:
                classes["diagonal"].append((r, c))
            elif c == ctx.delta(r):
                classes["partner"].append((r, c))
            else:
                classes["off-pair"].append((r, c))
    if ctx.odd:
        classes["diagonal"].append((0, 0))
    return classes


def _first_mismatch_cases(ring, ctx):
    """Bent identities whose first failing pairing wants 0, 1 and (odd) 2."""
    u1, v1, u2, v2 = ctx.u(1), ctx.v(1), ctx.u(2), ctx.v(2)
    cases = []
    for r, c in ((v1, v1), (u1, v1), (v2, u1)) + (((0, 0),) if ctx.odd else ()):
        m = Matrix.identity(ring, ctx.dim)
        m.rows[r][c] = ring.add(m.rows[r][c], ring.one)
        cases.append(m)
    return cases


@pytest.mark.parametrize("desc", RINGS)
def test_is_orthogonal_agrees_with_the_gram_test(desc):
    ring = ring_from_string(desc)
    rng = random.Random(desc)
    for ctx in (ODD, EVEN):
        seen = set()

        def agree(cand):
            verdict = is_orthogonal(cand, ctx)
            assert verdict == _two_products(cand, ctx)
            seen.add(verdict)

        for cand in _first_mismatch_cases(ring, ctx):
            agree(cand)
        for positions in _position_classes(ctx).values():
            for _ in range(3):
                if ctx.odd:
                    m = eval_word(random_word(ctx, ring, rng, 6))
                else:
                    m = eval_word(Word(ctx, ring, [GenLabel("OE", 1, 5, _scalar(ring, rng)),
                                                   GenLabel("OE", 6, 2, _scalar(ring, rng))]))
                m = m @ perm_matrix(ctx, ring, random_perm(ctx, rng))
                bent = m.copy()
                r, c = rng.choice(positions)
                bent.rows[r][c] = ring.add(bent.rows[r][c], ring.sample_unit(rng))
                for cand in (m, bent, random_matrix(ring, ctx.dim, rng)):
                    agree(cand)
        assert seen == {True, False}
        for dim in (ctx.dim - 1, ctx.dim + 1):
            with pytest.raises(IndexOutOfRange):
                is_orthogonal(Matrix.identity(ring, dim), ctx)


def _gram_multiplier(m, ctx):
    """mu with m^T gram m == mu gram, read from two dense products, or None."""
    g = gram(ctx, m.ring)
    transported = m.transpose() @ g @ m
    if ctx.odd:
        mult = transported[0, 0] * Scalar(m.ring, m.ring.half)
    else:
        mult = transported[ctx.u(1), ctx.v(1)]
    return mult if transported == g.scale(mult) else None


@pytest.mark.parametrize("desc", RINGS)
def test_similitude_multiplier_agrees_with_the_gram_transport(desc):
    ring = ring_from_string(desc)
    rng = random.Random(f"similitude:{desc}")
    for ctx in (ODD, EVEN):
        seen = set()
        for _ in range(4):
            if ctx.odd:
                m = eval_word(random_word(ctx, ring, rng, 6))
            else:
                m = eval_word(Word(ctx, ring, [GenLabel("OE", 1, 5, _scalar(ring, rng)),
                                               GenLabel("OE", 6, 2, _scalar(ring, rng))]))
            lam = Scalar(ring, ring.sample_unit(rng))
            scaled = m.scale(lam)
            assert similitude_multiplier(scaled, ctx) == lam * lam
            bent = scaled.copy()
            r, c = rng.randrange(ctx.dim), rng.randrange(ctx.dim)
            bent.rows[r][c] = ring.add(bent.rows[r][c], ring.sample_unit(rng))
            for cand in (scaled, bent, random_matrix(ring, ctx.dim, rng), Matrix.zeros(ring, ctx.dim)):
                got = similitude_multiplier(cand, ctx)
                assert got == _gram_multiplier(cand, ctx)
                seen.add(got is None)
        assert seen == {True, False}
        with pytest.raises(IndexOutOfRange):
            similitude_multiplier(Matrix.identity(ring, ctx.dim + 1), ctx)


def _count_matmuls(monkeypatch):
    calls = [0]
    plain = Matrix.__matmul__

    def counted(a, b):
        calls[0] += 1
        return plain(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    return calls


def _local_input(ctx, ring, rng, letters):
    """A random F-word times a random monomial, evaluated letter by letter."""
    d0 = Scalar(ring, ring.neg(ring.one) if rng.randrange(2) else ring.one)
    d = tuple(Scalar(ring, ring.sample_unit(rng)) for _ in range(ctx.n))
    core = [GenLabel("PERM", param=random_perm(ctx, rng)), GenLabel("DIAG", param=(d0, d))]
    return eval_word(Word(ctx, ring, random_word(ctx, ring, rng, letters).letters + tuple(core)))


def _certificate(ctx, rng, letters):
    """alpha over Q[X] and beta over Q[X^-1] with eval(witness) * beta = alpha."""
    QQ, PQ, LQ = (ring_from_string(d) for d in ("Q", "poly:Q", "laurent:Q"))
    poly = random_word(ctx, PQ, rng, letters).letters
    neg = [GenLabel(l.family, l.i, l.j, Scalar(LQ, LQ.make(-1, [l.param.payload])))
           for l in random_word(ctx, QQ, rng, 2).letters]
    witness = [GenLabel(l.family, l.i, l.j, laurent_of_poly(l.param)) for l in poly]
    witness += [l.inverse() for l in reversed(neg)]
    return HorrocksInstance(eval_word(Word(ctx, PQ, poly)), eval_word(Word(ctx, LQ, neg)),
                            Word(ctx, LQ, witness))


def test_letters_never_take_a_dense_product(monkeypatch):
    F5 = ring_from_string("Fp:5")
    ctx = FormContext(12)
    rng = random.Random(12)
    word = random_word(ctx, F5, rng, 48)
    alpha = eval_word(word) @ perm_matrix(ctx, F5, random_perm(ctx, rng))
    local_ctx = FormContext(8)
    local_alpha = _local_input(local_ctx, ring_from_string("Zpk:3:2"), rng, 32)
    inst = _certificate(FormContext(4), rng, 14)

    calls = _count_matmuls(monkeypatch)
    form_tests = [0]

    def counted_is_orthogonal(m, c):
        form_tests[0] += 1
        return is_orthogonal(m, c)

    monkeypatch.setattr(decompose, "is_orthogonal", counted_is_orthogonal)
    eval_word(word)
    assert calls[0] == 0
    dec = tmt_decompose(alpha, ctx)
    assert calls[0] == 0
    assert form_tests[0] == 0  # orthogonal input is certified by mo_split
    assert dec.recompose() == alpha
    assert calls[0] == 0
    local = local_decompose(local_alpha, local_ctx)
    assert calls[0] == 0
    assert local.recompose() == local_alpha
    assert calls[0] == 0
    assert check_horrocks_instance(inst)["accepted"]
    assert calls[0] == 0
    upper = Matrix.identity(F5, 6)
    upper.rows[0][5] = upper.rows[2][3] = F5.one
    unitriangular_inverse(upper)
    unitriangular_inverse(upper.transpose())
    assert calls[0] == 0
    block_ctx = FormContext(6)
    alt = Matrix.zeros(F5, 6)
    alt.rows[1][4], alt.rows[4][1] = F5.one, F5.neg(F5.one)
    for lower in (False, True):
        # diag(1, gamma, gamma^-T) after (upper) or before (lower) alt's block
        gamma = upper.transpose() if lower else upper
        shape = embed_blocks(block_ctx, F5, uu=gamma, uv=None if lower else gamma @ alt,
                             vu=alt @ gamma if lower else None,
                             vv=unitriangular_inverse(gamma.transpose()))
        calls[0] = 0
        word = factor_to(shape, block_ctx)
        assert calls[0] == 0
        assert eval_word(word) == shape
    # One sample of each law, of the three-factor and w-splits and of the
    # commutator and conjugation items: transvections and letters only,
    # never a product.
    for item in ("L2.3.i", "L2.3.ii", "L2.3.iii", "L2.3.iv", "L2.3.v",
                 "L4.6", "T4.8", "D2.7.comm", "C4.13", "L4.16", "L5.6"):
        assert run_suite([item], 1, 1).total_failures == 0
        assert calls[0] == 0, item


def test_mo_split_checks_its_letters_once(monkeypatch):
    ctx = FormContext(3)
    F5 = ring_from_string("Fp:5")
    d = [Scalar(F5, F5.from_int(k)) for k in (2, 3, 4)]
    mu = perm_matrix(ctx, F5, (1, 3, 2, 4, 6, 5, 7)) @ diag_orthogonal(ctx, Scalar(F5, F5.one), d)
    counts = {"_check_perm": 0, "_diag_entries": 0}

    def counting(name, plain):
        def counted(*args):
            counts[name] += 1
            return plain(*args)

        return counted

    for name in counts:
        counted = counting(name, getattr(generators, name))
        for module in (generators, decompose):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    core = mo_split(mu, ctx)
    # The PERM and DIAG letters are checked when their Word is built,
    # and nowhere else.
    assert counts == {"_check_perm": 1, "_diag_entries": 1}
    assert eval_word(core) == mu


@pytest.mark.parametrize("desc", ["Zpk:3:2", "Zpk:5:2", "trunc:F3:3"])
def test_local_letters_match_the_dense_formulas(desc):
    ring = ring_from_string(desc)
    rng = random.Random(desc)
    for n in (3, 4):
        ctx = FormContext(n)
        for _ in range(4):
            alpha = _local_input(ctx, ring, rng, 4 * n)
            dec = local_decompose(alpha, ctx)
            tau1, tau2 = eval_word(dec.tau1), eval_word(dec.tau2)
            assert dec.residual == (eval_word(dec.tau2.inverse())
                                    @ orthogonal_inverse(dec.mu, ctx)
                                    @ eval_word(dec.tau1.inverse()) @ alpha)
            assert dec.recompose() == tau1 @ dec.mu @ tau2 @ dec.residual == alpha
