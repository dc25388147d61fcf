"""Enumerable battery replaying the library's defining identities.

Every algebraic fact the other modules rely on appears here once, as a
named item with a seeded sampler and an exact two-sided check: the
transvection laws, the commutator table for the derived families, the
even-to-odd letter embeddings, the block and splitting identities, the
shuffle rewrite, and the scaling conjugations.  Items draw their inputs
from small exact rings so a run is seconds, not minutes, and every
failure carries the sampled inputs in JSON form.

The registry is closed: ITEM_IDS publishes its ids, sorted, and is
derived from it, so the two cannot drift apart.  A built-in mutation
self-test flips each sign in the generator term table and confirms that
the commutator and alternating-block items notice.
"""

import hashlib
import random
import time

from .decompose import _constant_matrix_over, factor_alt, theta_conjugate
from .errors import HypothesisViolated, OrthgenError, UnknownItem
from .generators import (
    GenLabel,
    Word,
    apply_word,
    commutator,
    diag_orthogonal,
    eval_word,
    gen_F,
    gen_oe,
    random_word,
    theta,
    word_shuffle,
    word_to_json,
)
from .quadratic_space import (
    FormContext,
    Matrix,
    Vector,
    embed_blocks,
    is_orthogonal,
    one_perp,
    similitude_multiplier,
    split_blocks,
)
from .rings import (
    LaurentRing,
    ModularRing,
    PolynomialRing,
    PrimeField,
    RationalField,
    Scalar,
    laurent_of_poly,
    variable,
)
from .transvections import (
    OrderIdealWitness,
    TransvectionSpec,
    apply_transvection,
    is_alternating,
    solve_alternating,
    split_w_pair,
    transvection_matrix,
    transvection_split3,
)

__all__ = [
    "ITEM_IDS",
    "SuiteItem",
    "SuiteReport",
    "mutation_selftest",
    "run_suite",
]

_SCALAR_RINGS = (
    RationalField(),
    PrimeField(3),
    PrimeField(5),
    PrimeField(7),
    ModularRing(3, 2),
    ModularRing(5, 2),
)
_POLY_RINGS = (PolynomialRing(RationalField()), PolynomialRing(PrimeField(5)))
_NS = (3, 4, 5)

class SuiteItem:
    """One identity: a stable id, its sampling grid, and an exact check."""

    __slots__ = ("id", "description", "rings", "ns", "check")

    def __init__(self, item_id, description, rings, ns, check):
        self.id = item_id
        self.description = description
        self.rings = rings
        self.ns = ns
        self.check = check


class SuiteReport:
    """Per-item sample and failure counts; elapsed stays out of the JSON."""

    __slots__ = ("seed", "items", "elapsed")

    def __init__(self, seed, items, elapsed):
        self.seed = seed
        self.items = items
        self.elapsed = elapsed

    @property
    def total_failures(self):
        return sum(len(item["failures"]) for item in self.items)

    def to_json(self):
        return {
            "items": [
                {"id": it["id"], "samples": it["samples"], "failures": it["failures"]}
                for it in self.items
            ],
            "seed": self.seed,
        }


# --- samplers -----------------------------------------------------------------


def _fail(ring, n, **data):
    out = {"ring": ring.descriptor, "n": n}
    out.update(data)
    return out


def _vec_json(v):
    return [v.ring.to_json(c) for c in v.comps]


def _sample(ring, rng):
    return Scalar(ring, ring.sample(rng))


def _nonzero(ring, rng):
    z = ring.sample(rng)
    return Scalar(ring, ring.one if ring.is_zero(z) else z)


def _unit(ring, rng):
    return Scalar(ring, ring.sample_unit(rng))


def _alternating(ring, n, rng):
    m = Matrix.zeros(ring, n)
    for i in range(n):
        for j in range(i + 1, n):
            z = ring.sample(rng)
            m.rows[i][j] = z
            m.rows[j][i] = ring.neg(z)
    return m


def _unipotent(ring, n, upper, rng):
    m = Matrix.identity(ring, n)
    for i in range(n):
        for j in range(i + 1, n) if upper else range(i):
            m.rows[i][j] = ring.sample(rng)
    return m


def _nil_square(ring, rng):
    """A payload whose square is zero: p^ceil(k/2) multiples, or plain zero."""
    if isinstance(ring, ModularRing):
        step = ring.p ** ((ring.k + 1) // 2)
        return ring.from_int(step * rng.randrange(ring.p ** (ring.k // 2)))
    return ring.zero


def _law_frame(ring, n, rng):
    """u, v spanning an isotropic plane and w meeting them trivially.

    q(u) = q(v) = 0 and all cross pairings vanish, while q(w) is free to
    be a nonzero square, so every law including the corrected product
    rule has its hypotheses met with its correction term alive.
    """
    dim = 2 * n + 1
    u = [ring.zero] * dim
    v = [ring.zero] * dim
    w = [ring.zero] * dim
    u[1], u[2] = ring.sample(rng), ring.sample(rng)
    v[1], v[2] = ring.sample(rng), ring.sample(rng)
    w[0], w[3] = ring.sample(rng), ring.sample(rng)
    return (
        Vector(ring, u, copy=False),
        Vector(ring, v, copy=False),
        Vector(ring, w, copy=False),
    )


def _transvections(ctx, *factors):
    """The product of the factors' E(v, w, x), one spec per factor."""
    out = transvection_matrix(TransvectionSpec(ctx, *factors[0]))
    for f in factors[1:]:
        apply_transvection(out, TransvectionSpec(ctx, *f))
    return out


def _law_holds(key, ctx, u, v, w, a, b, alpha):
    """Whether L2.3 law `key` holds on the sample, both sides built exactly.

    Each side is one running matrix taken through the transvection
    kernel.  The hypotheses are those of the specs the factors build, so
    a violated one raises HypothesisViolated.
    """
    E = _transvections
    ident = Matrix.identity(u.ring, ctx.dim)
    if key == "i":
        return is_orthogonal(E(ctx, (u, v, a)), ctx) and E(ctx, (u, u, a)) == ident
    if key == "ii":
        return E(ctx, (u, v, a * b)) == E(ctx, (u.scale(a), v, b)) == E(ctx, (u, v.scale(a), b))
    if key == "iii":
        return E(ctx, (u, v, a), (u, w, a)) == E(ctx, (u, v + w, a))
    if key == "iv":
        # Additivity in the first slot picks up a correction transvection
        # inside the isotropic plane spanned by u and v.
        fix = -(a * a * ctx.quad(w))
        return (E(ctx, (u, w, a), (v, w, a)) == E(ctx, (u + v, w, a), (u, v, fix))
                and E(ctx, (u, v, a), (v, u, a)) == ident)
    mult = similitude_multiplier(alpha, ctx)
    if mult is None:
        raise HypothesisViolated("alpha is not a similitude")
    moved = mult.inv() * b
    # alpha*E(u, v, b)*alpha^-1 == E(alpha u, alpha v, b/mu), cleared of
    # the inverse by multiplying both sides by alpha on the right.
    lhs = alpha.copy()
    apply_transvection(lhs, TransvectionSpec(ctx, u, v, b))
    rhs = alpha.copy()
    apply_transvection(rhs, TransvectionSpec(ctx, alpha.apply(u), alpha.apply(v), moved), left=True)
    return lhs == rhs


def _law_item(key):
    def check(rng, ring, n):
        ctx = FormContext(n)
        u, v, w = _law_frame(ring, n, rng)
        a, b = _sample(ring, rng), _sample(ring, rng)
        alpha = None
        if key == "v":
            lam = _unit(ring, rng)
            alpha = eval_word(random_word(ctx, ring, rng, 5)).scale(lam)
        if _law_holds(key, ctx, u, v, w, a, b, alpha):
            return None
        return _fail(
            ring, n, law=key, result="unequal",
            u=_vec_json(u), v=_vec_json(v), w=_vec_json(w),
            a=ring.to_json(a.payload), b=ring.to_json(b.payload),
        )

    return check


def _one_index(ctx, ring, fam, i, z):
    """The one-letter word of F1 or F2 letter fam_i(z)."""
    return Word(ctx, ring, [GenLabel(fam, i, None, z)])


def _item_d27_comm(rng, ring, n):
    ctx = FormContext(n)
    half = Scalar(ring, ring.half)
    i = rng.randrange(1, n + 1)
    j = rng.randrange(1, n)
    if j >= i:
        j += 1
    z = _nonzero(ring, rng)
    table = (
        ("F3", gen_F(ctx, "F3", i, j, z),
         commutator(_one_index(ctx, ring, "F1", i, z), _one_index(ctx, ring, "F2", j, -half))),
        ("F4", gen_F(ctx, "F4", i, j, z),
         commutator(_one_index(ctx, ring, "F1", j, z), _one_index(ctx, ring, "F1", i, half))),
        ("F5", gen_F(ctx, "F5", i, j, z),
         commutator(_one_index(ctx, ring, "F2", j, z), _one_index(ctx, ring, "F2", i, half))),
    )
    broken = [fam for fam, want, got in table if want != eval_word(got)]
    if not broken:
        return None
    return _fail(ring, n, relations=broken, i=i, j=j, z=ring.to_json(z.payload))


def _item_s32_embed(rng, ring, n):
    ectx = FormContext(3, odd=False)
    ctx = FormContext(3)
    table = (
        ((1, 2), ("F3", 1, 2)),
        ((1, 3), ("F3", 1, 3)),
        ((1, 5), ("F4", 1, 2)),
        ((1, 6), ("F4", 1, 3)),
        ((2, 3), ("F3", 2, 3)),
        ((2, 6), ("F4", 2, 3)),
    )
    for (p, q), (fam, i, j) in table:
        z = _sample(ring, rng)
        if one_perp(gen_oe(ectx, p, q, z)) != gen_F(ctx, fam, i, j, z):
            return _fail(ring, 3, pair=[p, q], family=fam,
                         z=ring.to_json(z.payload))
    return None


def _t41_matrix(ctx, ring, lo, up):
    """diag(1, alpha, alpha^-T) for alpha = lo*up, by column operations.

    Each elementary factor I + c*e_ij of lo (by increasing column j) and
    of up (by decreasing row i) multiplies the u block on the right,
    column j += c * column i, and its inverse transpose I - c*e_ji the v
    block, column i -= c * column j.
    """
    n, u, v = ctx.n, ctx.u(1), ctx.v(1)
    factors = [(i, j, lo.rows[i][j]) for j in range(n) for i in range(j + 1, n)]
    factors += [(i, j, up.rows[i][j]) for i in reversed(range(n)) for j in range(i + 1, n)]
    m = Matrix.identity(ring, ctx.dim)
    for i, j, c in factors:
        m.col_add(u + j, u + i, c)
        m.col_add(v + i, v + j, ring.neg(c))
    return m


def _item_t41(rng, ring, n):
    ctx = FormContext(n)
    lo = _unipotent(ring, n, False, rng)
    up = _unipotent(ring, n, True, rng)
    m = _t41_matrix(ctx, ring, lo, up)
    if is_orthogonal(m, ctx):
        return None
    return _fail(ring, n, alpha=split_blocks(m, ctx)[0].to_json())


def _item_t42(rng, ring, n):
    ctx = FormContext(n)
    a = _alternating(ring, n, rng)
    for upper in (True, False):
        block = embed_blocks(ctx, ring, uv=a) if upper else embed_blocks(ctx, ring, vu=a)
        if eval_word(factor_alt(a, upper, ctx)) != block:
            return _fail(ring, n, upper=upper, block=a.to_json())
    return None


def _item_l46(rng, ring, n):
    ctx = FormContext(n)
    g1 = _alternating(ring, n, rng)
    g2 = _alternating(ring, n, rng)
    vp = Vector(ring, [ring.sample(rng) for _ in range(n)])
    vdp = g1.apply(vp)
    wp = g2.apply(vdp)
    v = Vector(ring, [_nil_square(ring, rng)] + vp.comps + vdp.comps, copy=False)
    w = Vector(ring, [_nil_square(ring, rng)] + wp.comps + [ring.zero] * n, copy=False)
    spec = TransvectionSpec(ctx, v, w, _sample(ring, rng))
    first, word = transvection_split3(spec)
    m = transvection_matrix(first)
    apply_word(m, word)
    if m == transvection_matrix(spec):
        return None
    return _fail(ring, n, spec=spec.to_json())


def _item_t48(rng, ring, n):
    ctx = FormContext(n)
    g1 = _alternating(ring, n, rng)
    g2 = _alternating(ring, n, rng)
    vp = Vector(ring, [ring.one] + [ring.sample(rng) for _ in range(n - 1)])
    vdp = g1.apply(vp)
    wp = Vector(ring, [ring.sample(rng) for _ in range(n)])
    wdp = g2.apply(vp)
    wdp.comps[0] = ring.add(wdp.comps[0], ring.neg(vdp.dot(wp).payload))
    v = Vector(ring, [ring.zero] + vp.comps + vdp.comps, copy=False)
    w = Vector(ring, [ring.zero] + wp.comps + wdp.comps, copy=False)
    combiners = [Scalar(ring, ring.zero)] + [_sample(ring, rng) for _ in range(n)]
    a_col = Vector(ring, [ring.zero] + list(vdp.comps))
    b_col = Vector(ring, [ring.zero] + list(vp.comps))
    acc = ring.zero
    for c, e in zip(combiners, a_col.comps):
        acc = ring.add(acc, ring.mul(c.payload, e))
    y = Scalar(ring, acc)
    witness = OrderIdealWitness(y, combiners, [a_col[i] for i in range(n + 1)])
    alpha = solve_alternating(b_col, a_col, witness)
    w1, w2 = split_w_pair(v, w, y, alpha)
    x1 = _sample(ring, rng)
    whole = transvection_matrix(TransvectionSpec(ctx, v, w.scale(y), x1))
    lhs = transvection_matrix(TransvectionSpec(ctx, v, w, x1 * y))
    split = transvection_matrix(TransvectionSpec(ctx, v, w1, x1))
    apply_transvection(split, TransvectionSpec(ctx, v, w2, x1))
    if lhs == whole == split:
        return None
    return _fail(ring, n, v=_vec_json(v), w=_vec_json(w),
                 y=ring.to_json(y.payload), x1=ring.to_json(x1.payload))


def _item_c413(rng, ring, n):
    ctx = FormContext(2)
    one = Scalar(ring, ring.one)
    b = _unit(ring, rng)
    d = Word(ctx, ring, [GenLabel("DIAG", param=(one, (b, b.inv())))])
    sigma = Word(ctx, ring, [GenLabel("PERM", param=(1, 4, 3, 2, 5))])
    if eval_word(commutator(d, sigma)) == diag_orthogonal(ctx, one, (b * b, one)):
        return None
    return _fail(ring, 2, b=ring.to_json(b.payload))


def _item_l416(rng, ring, n):
    ctx = FormContext(3)
    half = Scalar(ring, ring.half)
    mh = -half
    probe = _nonzero(ring, rng)
    for z in (probe, Scalar(ring, ring.zero)):
        zq = z * z * half
        for j in (1, 2):
            a = commutator(
                _one_index(ctx, ring, "F1", 3, z),
                commutator(_one_index(ctx, ring, "F2", j, mh), _one_index(ctx, ring, "F2", 3, mh)),
            )
            bb = commutator(_one_index(ctx, ring, "F1", 3, zq), _one_index(ctx, ring, "F2", j, mh))
            prod = a * bb
            if eval_word(prod * prod) != gen_F(ctx, "F2", j, None, z):
                return _fail(ring, 3, target=j, z=ring.to_json(z.payload))
        a = commutator(_one_index(ctx, ring, "F1", 2, zq), _one_index(ctx, ring, "F2", 3, mh))
        inner = commutator(_one_index(ctx, ring, "F2", 2, mh), _one_index(ctx, ring, "F2", 3, mh))
        bb = commutator(_one_index(ctx, ring, "F1", 2, z), inner)
        prod = a * bb.inverse()
        if eval_word(prod * prod) != gen_F(ctx, "F2", 3, None, z):
            return _fail(ring, 3, target=3, z=ring.to_json(z.payload))
    return None


def _item_r52(rng, ring, n):
    ctx = FormContext(n)
    word = random_word(ctx, ring, rng, 2 * (1 + rng.randrange(4)))
    shuffled = word_shuffle(word)
    if eval_word(shuffled) == eval_word(word):
        return None
    return _fail(ring, n, word=word_to_json(word))


def _even_frame(base, n, rng, length=6):
    """1-perp lift of a random product of even elementary letters."""
    ectx = FormContext(n, odd=False)
    letters = []
    for _ in range(length):
        i = rng.randrange(1, 2 * n + 1)
        j = rng.randrange(1, 2 * n + 1)
        while j == i or j == (i + n if i <= n else i - n):
            j = rng.randrange(1, 2 * n + 1)
        letters.append(GenLabel("OE", i, j, _sample(base, rng)))
    return one_perp(eval_word(Word(ectx, base, letters)))


def _item_l51(rng, P, n):
    base = P.base
    L = LaurentRing(base)
    ctx = FormContext(n)
    frame = _even_frame(base, n, rng)
    s = rng.randrange(1, 2 * n + 1)
    t = rng.randrange(1, 2 * n + 1)
    while t == s or t == (s + n if s <= n else s - n):
        t = rng.randrange(1, 2 * n + 1)

    cols = [[frame.rows[r][idx] for r in range(ctx.dim)] for idx in (s, t)]
    f = Scalar(P, P.make([base.sample(rng) for _ in range(1 + rng.randrange(4))]))
    v, w = (Vector(P, [P.make([c]) for c in comps], copy=False) for comps in cols)
    spec = TransvectionSpec(ctx, v, w, variable(P) * f)
    conj, flag = theta_conjugate(transvection_matrix(spec), 1, ctx)
    th = theta(ctx, L)
    vl, wl = (th.apply(Vector(L, [L.make(0, [c]) for c in comps], copy=False)) for comps in cols)
    if conj != transvection_matrix(TransvectionSpec(ctx, vl, wl, laurent_of_poly(f))):
        return _fail(P, n, spec=spec.to_json(), reason="conjugate mismatch")
    if flag:
        return None
    return _fail(P, n, spec=spec.to_json(), reason="negative powers")


def _l54_sides(ctx, P, beta0):
    """theta*beta0 and beta0*t*theta over P, with the correction block.

    t is the identity plus (1 - X)*a23^T*a33 on the u-v block and
    (X - 1)*a11*a13 on the center row's v part; a23^T*a33 pairs the u
    part of each v column of beta0 with the v part of another.  theta
    acts as a THETA letter on each side and t as column operations.
    """
    n, base = ctx.n, beta0.ring
    cols = [[row[n + 1 + j] for row in beta0.rows] for j in range(n)]
    us = [Vector(base, col[1 : n + 1]) for col in cols]
    vs = [Vector(base, col[n + 1 :]) for col in cols]
    corr = Matrix(base, [[a.dot(b).payload for b in vs] for a in us], copy=False)
    th = Word(ctx, P, [GenLabel("THETA")])
    lifted = _constant_matrix_over(beta0, P)
    lhs = lifted.copy()
    apply_word(lhs, th, left=True)
    for j in range(n):
        for i in range(n):
            c = corr.rows[i][j]
            lifted.col_add(n + 1 + j, 1 + i, P.make([c, base.neg(c)]))
        b = base.mul(beta0.rows[0][0], beta0.rows[0][n + 1 + j])
        lifted.col_add(n + 1 + j, 0, P.make([base.neg(b), b]))
    apply_word(lifted, th)
    return lhs, lifted, corr


def _item_l54(rng, P, n):
    base = P.base
    ctx = FormContext(n)
    d0 = Scalar(base, base.from_int(rng.choice((1, -1))))
    d = [_unit(base, rng) for _ in range(n)]
    core = Word(ctx, base, [GenLabel("DIAG", param=(d0, tuple(d)))])
    for families in (("F1", "F3", "F4"), ("F3", "F4")):
        beta0 = eval_word(random_word(ctx, base, rng, 6, families=families) * core)
        lhs, rhs, corr = _l54_sides(ctx, P, beta0)
        if lhs != rhs:
            return _fail(P, n, beta0=beta0.to_json(), families=list(families))
        if "F1" not in families and not is_alternating(corr):
            return _fail(P, n, beta0=beta0.to_json(), reason="correction not alternating")
    return None


def _item_l56(rng, ring, n):
    ctx = FormContext(n)
    d0 = Scalar(ring, ring.from_int(rng.choice((1, -1))))
    d = [_unit(ring, rng) for _ in range(n)]
    alpha = GenLabel("DIAG", param=(d0, tuple(d)))
    z = _sample(ring, rng)
    i = rng.randrange(1, n + 1)

    def conjugate(fam):
        return eval_word(Word(ctx, ring, [alpha, GenLabel(fam, i, None, z), alpha.inverse()]))

    ok1 = conjugate("F1") == gen_F(ctx, "F1", i, None, d0 * d[i - 1] * z)
    ok2 = conjugate("F2") == gen_F(ctx, "F2", i, None, d0 * d[i - 1].inv() * z)
    if ok1 and ok2:
        return None
    return _fail(ring, n, i=i, z=ring.to_json(z.payload),
                 d0=ring.to_json(d0.payload),
                 d=[ring.to_json(u.payload) for u in d])


def _build_registry():
    items = (
        SuiteItem("L2.3.i",
                  "transvections preserve the form; the u,u case is trivial",
                  _SCALAR_RINGS, _NS, _law_item("i")),
        SuiteItem("L2.3.ii",
                  "the parameter slides onto either defining vector",
                  _SCALAR_RINGS, _NS, _law_item("ii")),
        SuiteItem("L2.3.iii",
                  "additivity in the second vector at a fixed parameter",
                  _SCALAR_RINGS, _NS, _law_item("iii")),
        SuiteItem("L2.3.iv",
                  "additivity in the first vector with the q(w) correction factor",
                  _SCALAR_RINGS, _NS, _law_item("iv")),
        SuiteItem("L2.3.v",
                  "similitudes conjugate transvections to transvections",
                  _SCALAR_RINGS, _NS, _law_item("v")),
        SuiteItem("D2.7.comm",
                  "the two-index families as commutators of the one-index ones",
                  _SCALAR_RINGS, _NS, _item_d27_comm),
        SuiteItem("S3.2.embed",
                  "1-perp lifts of the six even letters match F3/F4 letters",
                  _SCALAR_RINGS, (3,), _item_s32_embed),
        SuiteItem("T4.1",
                  "diag(1, alpha, transpose-inverse) preserves the form",
                  _SCALAR_RINGS, _NS, _item_t41),
        SuiteItem("T4.2",
                  "alternating off-blocks factor into F4/F5 letters",
                  _SCALAR_RINGS, _NS, _item_t42),
        SuiteItem("L4.6",
                  "three-factor splitting of a transvection with empty w''",
                  _SCALAR_RINGS, _NS, _item_l46),
        SuiteItem("T4.8",
                  "splitting w along an alternating witness multiplies out",
                  _SCALAR_RINGS, _NS, _item_t48),
        SuiteItem("C4.13",
                  "the 5x5 diagonal-permutation commutator squares the unit",
                  _SCALAR_RINGS, (2,), _item_c413),
        SuiteItem("L4.16",
                  "second-family letters as squared commutator products",
                  _SCALAR_RINGS, (3,), _item_l416),
        SuiteItem("R5.2",
                  "interleaved words shuffle into conjugates times a prefix",
                  _SCALAR_RINGS, _NS, _item_r52),
        SuiteItem("L5.1",
                  "scaling conjugation of X-divisible transvections stays polynomial",
                  _POLY_RINGS, _NS, _item_l51),
        SuiteItem("L5.4",
                  "free terms absorb the scaling up to an upper correction block",
                  _POLY_RINGS, _NS, _item_l54),
        SuiteItem("L5.6",
                  "orthogonal diagonals rescale one-index letters by d0*d_i",
                  _SCALAR_RINGS, _NS, _item_l56),
    )
    return {item.id: item for item in items}


_REGISTRY = _build_registry()
ITEM_IDS = tuple(sorted(_REGISTRY))


def _item_rng(seed, item_id):
    digest = hashlib.sha256(f"{seed}:{item_id}".encode()).hexdigest()
    return random.Random(int(digest, 16))


def run_suite(selection, seed, samples):
    """Run the selected items, `samples` draws each, exact checks throughout.

    selection is "all" or an iterable of item ids; each item's stream of
    draws depends only on (seed, item id), so reports are reproducible
    and item order cannot leak randomness between items.
    """
    if selection == "all":
        ids = list(ITEM_IDS)
    else:
        ids = sorted(set(selection))
        if not ids:
            raise UnknownItem("empty selection")
        for item_id in ids:
            if item_id not in _REGISTRY:
                raise UnknownItem(f"unknown suite item {item_id!r}")
    results = []
    elapsed = {}
    for item_id in ids:
        item = _REGISTRY[item_id]
        rng = _item_rng(seed, item_id)
        failures = []
        started = time.perf_counter()
        for _ in range(samples):
            ring = item.rings[rng.randrange(len(item.rings))]
            nn = item.ns[rng.randrange(len(item.ns))]
            try:
                out = item.check(rng, ring, nn)
            except OrthgenError as exc:
                out = _fail(ring, nn, error=f"{type(exc).__name__}: {exc}")
            if out is not None:
                failures.append(out)
        elapsed[item_id] = time.perf_counter() - started
        results.append({"id": item_id, "samples": samples, "failures": failures})
    return SuiteReport(seed, results, elapsed)


def mutation_selftest(seed=0, samples=4):
    """Flip each sign in the generator term table; the suite must notice.

    Returns {"family[index]": caught} for every single-sign mutation,
    running only the commutator and alternating-block items against the
    mutated table.  The table is always restored, even on error.
    """
    from . import generators as _generators

    original = _generators._F_TERMS
    report = {}
    try:
        for family in sorted(original):
            terms = original[family]
            for idx, (row, col, coeff, power) in enumerate(terms):
                mutated = dict(original)
                replaced = list(terms)
                replaced[idx] = (row, col, -coeff, power)
                mutated[family] = tuple(replaced)
                _generators._F_TERMS = mutated
                outcome = run_suite(["D2.7.comm", "T4.2"], seed, samples)
                report[f"{family}[{idx}]"] = outcome.total_failures > 0
    finally:
        _generators._F_TERMS = original
    return report
