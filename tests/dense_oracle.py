"""Dense oracles kept for the tests.

letter_matrix builds the matrix of one letter, the reference the sparse
letter kernel is checked against; transvection_formula builds E(v, w, x)
from outer products, the reference for the transvection kernel;
gram is the form's matrix and orthogonal_inverse the form adjoint, and unitriangular_series the
terminating Neumann series, against which unitriangular_inverse's
substitution is checked; det is a division-free determinant that the
tests use to check transvections and to test itself.
"""

from orthgen.generators import (
    F_FAMILIES,
    _validate_letter,
    diag_orthogonal,
    gen_F,
    gen_oe,
    perm_matrix,
    theta,
)
from orthgen.errors import NotUnipotent
from orthgen.quadratic_space import Matrix
from orthgen.rings import Scalar


def _invert_perm(pi) -> tuple:
    out = [0] * len(pi)
    for s, t in enumerate(pi):
        out[t - 1] = s + 1
    return tuple(out)


def letter_matrix(ctx, ring, letter):
    """The matrix of one letter, applying the closed-form inverse if exp = -1."""
    _validate_letter(ctx, ring, letter)
    fam, e = letter.family, letter.exp
    if fam in F_FAMILIES:
        z = letter.param if e == 1 else -letter.param
        return gen_F(ctx, fam, letter.i, letter.j, z)
    if fam == "OE":
        z = letter.param if e == 1 else -letter.param
        return gen_oe(ctx, letter.i, letter.j, z)
    if fam == "PERM":
        pi = letter.param if e == 1 else _invert_perm(letter.param)
        return perm_matrix(ctx, ring, pi)
    if fam == "DIAG":
        d0, d = letter.param
        if e == -1:
            d = tuple(x.inv() for x in d)
        return diag_orthogonal(ctx, d0, d)
    out = theta(ctx, ring, letter.param)
    if e == -1:
        for s in range(ctx.dim):
            out.rows[s][s] = ring.inv(out.rows[s][s])
    return out


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
    m = Matrix.identity(v.ring, ctx.dim) + (v.outer(tw) - w.outer(tv)).scale(x)
    return m - v.outer(tv).scale(x * x * ctx.quad(w))


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
    negn = ident - M
    acc = ident
    term = ident
    for _ in range(d - 1):
        term = term @ negn
        acc = acc + term
    return acc
