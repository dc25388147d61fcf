"""Dense oracles kept for the tests.

letter_matrix builds the matrix of one letter entry by entry, straight
from the generator term table with its own slot arithmetic, the
reference the letter kernel (and so every builder) is checked against;
transvection_formula builds E(v, w, x) from outer products, the
reference for the transvection kernel; gram is the form's matrix and
orthogonal_inverse the form adjoint, and unitriangular_series the
terminating Neumann series, against which unitriangular_inverse's
substitution is checked; det is a division-free determinant that the
tests use to check transvections and to test itself.  add, sub, neg and
outer are the dense matrix sum, difference, negation and outer product,
which the package itself never forms.
"""

from orthgen import generators
from orthgen.generators import F_FAMILIES, _validate_letter
from orthgen.errors import NotUnipotent, RingMismatch
from orthgen.quadratic_space import Matrix
from orthgen.rings import Scalar, variable


def _same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatch(f"{a.ring.descriptor} vs {b.ring.descriptor}")
    return a.ring


def add(a, b):
    """The entrywise sum a + b of two matrices."""
    R = _same_ring(a, b)
    return Matrix(R, [[R.add(x, y) for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)], copy=False)


def neg(a):
    """The entrywise negation -a."""
    R = a.ring
    return Matrix(R, [[R.neg(x) for x in r] for r in a.rows], copy=False)


def sub(a, b):
    """The entrywise difference a - b."""
    return add(a, neg(b))


def outer(v, w):
    """v as a column times w as a row."""
    R = _same_ring(v, w)
    return Matrix(R, [[R.mul(x, y) for y in w.comps] for x in v.comps], copy=False)


def _term_slot(ctx, name, i, j):
    """The 0-based slot of a term-table name: the center, or u or v of index i or j."""
    if name == "c":
        return 0
    idx = i if name.endswith("i") else j
    return ctx.u(idx) if name.startswith("u") else ctx.v(idx)


def letter_matrix(ctx, ring, letter):
    """The matrix of one letter, applying the closed-form inverse if exp = -1."""
    _validate_letter(ctx, ring, letter)
    fam, e = letter.family, letter.exp
    m = Matrix.zeros(ring, ctx.dim) if fam == "PERM" else Matrix.identity(ring, ctx.dim)
    rows = m.rows
    if fam in F_FAMILIES or fam == "OE":
        z = letter.param.payload if e == 1 else ring.neg(letter.param.payload)
        if fam == "OE":
            i, j = letter.i - 1, letter.j - 1
            terms = ((i, j, z), (ctx.delta(j), ctx.delta(i), ring.neg(z)))
        else:
            powers = {1: z, 2: ring.mul(z, z)}
            terms = [(_term_slot(ctx, r, letter.i, letter.j), _term_slot(ctx, c, letter.i, letter.j),
                      ring.mul(ring.from_int(coeff), powers[power]))
                     for r, c, coeff, power in generators._F_TERMS[fam]]
        for r, c, a in terms:
            rows[r][c] = ring.add(rows[r][c], a)
    elif fam == "PERM":
        # sigma*e_s = e_pi(s); the inverse sends e_pi(s) back to e_s.
        for s, t in enumerate(letter.param):
            r, c = (t - 1, s) if e == 1 else (s, t - 1)
            rows[r][c] = ring.one
    elif fam == "DIAG":
        d0, d = letter.param
        d = [x.payload for x in d]
        inv = [ring.inv(x) for x in d]
        for s, x in enumerate([d0.payload] + (d + inv if e == 1 else inv + d)):
            rows[s][s] = x
    else:
        x = variable(ring)
        if e == -1:
            x = x.inv()
        for s in range(ctx.n + 1 if letter.param is None else letter.param):
            rows[s][s] = x.payload
    return m


def _dotrow(R, xs, ys):
    acc = R.zero
    for x, y in zip(xs, ys):
        acc = R.add(acc, R.mul(x, y))
    return acc


def det(m):
    """Division-free determinant (Berkowitz), valid over any commutative ring."""
    R = m.ring
    d = m.dim
    if d == 0:
        return Scalar(R, R.one)
    a = m.rows
    # poly holds the characteristic polynomial of the leading principal
    # block, highest coefficient first.
    poly = [R.one, R.neg(a[0][0])]
    for i in range(1, d):
        row = a[i][:i]
        col = [a[r][i] for r in range(i)]
        s = [a[i][i]]
        vec = col
        for _ in range(i):
            s.append(_dotrow(R, row, vec))
            vec = [_dotrow(R, a[r][:i], vec) for r in range(i)]
        new = [R.zero] * (i + 2)
        for q in range(i + 1):
            pq = poly[q]
            if R.is_zero(pq):
                continue
            new[q] = R.add(new[q], pq)
            for k, sk in enumerate(s):
                if q + 1 + k <= i + 1:
                    new[q + 1 + k] = R.add(new[q + 1 + k], R.neg(R.mul(sk, pq)))
        poly = new
    val = poly[d]
    if d % 2:
        val = R.neg(val)
    return Scalar(R, val)


def gram(ctx, ring):
    """The matrix G of the bilinear form: phi(x, y) = x^T G y."""
    m = Matrix.zeros(ring, ctx.dim)
    if ctx.odd:
        m.rows[0][0] = ring.from_int(2)
    for i in range(1, ctx.n + 1):
        m.rows[ctx.u(i)][ctx.v(i)] = ring.one
        m.rows[ctx.v(i)][ctx.u(i)] = ring.one
    return m


def transvection_formula(ctx, v, w, x):
    """E(v, w, x) = I + x*(v*wt - w*vt) - x^2*q(w)*(v*vt), by dense outer products."""
    tv = ctx.tilde(v)
    tw = ctx.tilde(w)
    m = add(Matrix.identity(v.ring, ctx.dim), sub(outer(v, tw), outer(w, tv)).scale(x))
    return sub(m, outer(v, tv).scale(x * x * ctx.quad(w)))


def orthogonal_inverse(M, ctx):
    """Inverse of an orthogonal matrix: gram^-1 * M^T * gram, by entry shuffles."""
    R = M.ring
    d = ctx.dim
    two = R.from_int(2)
    rows = []
    for i in range(d):
        si = ctx.delta(i)
        row = []
        for j in range(d):
            e = M.rows[ctx.delta(j)][si]
            if ctx.odd and i == 0 and j != 0:
                e = R.mul(R.half, e)
            elif ctx.odd and j == 0 and i != 0:
                e = R.mul(two, e)
            row.append(e)
        rows.append(row)
    return Matrix(R, rows, copy=False)


def unitriangular_series(M):
    """Inverse of a unitriangular matrix as the terminating Neumann series."""
    R = M.ring
    d = M.dim
    upper = all(R.is_zero(M.rows[i][j]) for i in range(d) for j in range(i))
    lower = all(R.is_zero(M.rows[i][j]) for i in range(d) for j in range(i + 1, d))
    diag_one = all(M.rows[i][i] == R.one for i in range(d))
    if not (diag_one and (upper or lower)):
        raise NotUnipotent("matrix is not unitriangular")
    ident = Matrix.identity(R, d)
    negn = sub(ident, M)
    acc = ident
    term = ident
    for _ in range(d - 1):
        term = term @ negn
        acc = add(acc, term)
    return acc
