"""Orthogonal transvections and their constructive splittings.

The transvection E(v, w, x) is taken in the operator normalization

    E(v, w, x) = I + x*(v*wt - w*vt) - x^2*q(w)*(v*vt),

where vt, wt are the tilde rows of v, w.  It is defined whenever
q(v) = 0 and phi(v, w) = 0, and then E(v, w, x) is orthogonal with
E(v, w, x)^-1 = E(v, w, -x).  Under this sign choice the standard
letters are transvections on the nose: F1_i(z) = E(e_ui, -e_0, z),
F2_i(z) = E(e_vi, -e_0, z), and in the even space
oe_ij(z) = E(e_i, e_delta(j), z).

A TransvectionSpec checks those hypotheses once, when it is built.
apply_transvection, the kernel's one entry, multiplies a matrix by its
E(v, w, x) in place as two rank-1 line updates and checks only the
matrix.  transvection_matrix goes through it, so no transvection is
built from outer products or multiplied in as a dense matrix.  The
transvection laws themselves are identity-suite items (L2.3.i-v), which
build both sides of each law with these two operations.

The three-factor splitting (transvection_split3) assumes the w block
shape (w0, w', 0) and returns its factors as a transvection and a
letter word: the block-diagonal factor diag(1, alpha, alpha^-T), with
alpha = I - x*w'*(v'')^T, is itself the transvection
E((0, w', 0), (0, 0, v''), -x); the alternating middle block
x*(v'*(w')^T - w'*(v')^T) is a run of F4 letters, and the border rows
are F2 and F1 letters.
"""

from __future__ import annotations

from .errors import (
    BadWitness,
    HypothesisViolated,
    IndexOutOfRange,
    NotOrthogonalPair,
    RingMismatch,
)
from .generators import GenLabel, Word
from .quadratic_space import FormContext, Matrix, Vector
from .rings import Scalar

__all__ = [
    "TransvectionSpec",
    "OrderIdealWitness",
    "transvection_matrix",
    "apply_transvection",
    "solve_alternating",
    "transvection_split3",
    "split_w_pair",
    "is_alternating",
]


class TransvectionSpec:
    """Data (v, w, x) of E(v, w, x) over ctx, checked once when built.

    v and w are plain Vectors of length ctx.dim, over any ring, with
    q(v) = 0 and phi(v, w) = 0; x is a Scalar over the same ring.  The
    kernel and everything built on it trust a spec and re-check nothing,
    so the spec keeps its own copies of v and w.
    """

    __slots__ = ("ctx", "v", "w", "x")

    def __init__(self, ctx: FormContext, v: Vector, w: Vector, x: Scalar) -> None:
        R = v.ring
        if w.ring != R or x.ring != R:
            raise RingMismatch("transvection data must share one ring")
        _check_lengths(ctx, v, w)
        if not ctx.quad(v) == 0:
            raise HypothesisViolated("q(v) must vanish")
        if not ctx.phi(v, w) == 0:
            raise HypothesisViolated("phi(v, w) must vanish")
        self.ctx = ctx
        self.v = Vector(R, v.comps)
        self.w = Vector(R, w.comps)
        self.x = x

    def __repr__(self) -> str:
        ctx = self.ctx
        return f"TransvectionSpec(n={ctx.n}, odd={ctx.odd}, v={self.v!r}, w={self.w!r}, x={self.x!r})"

    def to_json(self) -> dict:
        R = self.x.ring
        return {
            "ring": R.descriptor,
            "n": self.ctx.n,
            "odd": self.ctx.odd,
            "v": [R.to_json(c) for c in self.v.comps],
            "w": [R.to_json(c) for c in self.w.comps],
            "x": R.to_json(self.x.payload),
        }


class OrderIdealWitness:
    """A membership certificate x = sum_i c_i * s_i over given entries s_i."""

    __slots__ = ("target", "combiners", "sources")

    def __init__(self, target: Scalar, combiners, sources) -> None:
        combiners = tuple(combiners)
        sources = tuple(sources)
        if len(combiners) != len(sources):
            raise BadWitness("combiner and source counts differ")
        R = target.ring
        acc = R.zero
        for c, s in zip(combiners, sources):
            if c.ring != R or s.ring != R:
                raise RingMismatch("witness parts must share one ring")
            acc = R.add(acc, R.mul(c.payload, s.payload))
        if acc != target.payload:
            raise BadWitness("combination does not reproduce the target")
        self.target = target
        self.combiners = combiners
        self.sources = sources


def _check_lengths(ctx: FormContext, *vectors: Vector) -> None:
    if any(len(t) != ctx.dim for t in vectors):
        raise IndexOutOfRange(f"vectors must have length {ctx.dim}")


def apply_transvection(m: Matrix, spec: TransvectionSpec, left: bool = False) -> None:
    """Multiply m in place by E(v, w, x): m <- E*m if left, else m <- m*E.

    E = I + v*a^T + w*b^T with a = x*wt - x^2*q(w)*vt and b = -x*vt, so
    E*m adds v*(a^T m) + w*(b^T m) to m's rows and m*E adds
    (m v)*a^T + (m w)*b^T to its columns: two rank-1 updates over the
    nonzero support of v and w, O(dim) ring operations per line touched.
    The spec was checked when built; only m's size and ring are checked.
    """
    ctx, v, w = spec.ctx, spec.v, spec.w
    R = v.ring
    if m.dim != ctx.dim:
        raise IndexOutOfRange(f"dimension mismatch {m.dim} vs {ctx.dim}")
    if m.ring != R:
        raise RingMismatch(f"{m.ring.descriptor} vs {R.descriptor}")
    d, zero = m.dim, R.zero

    def support(comps):
        # Payloads are canonical, so != zero is the ring's nonzero test.
        return [(k, c) for k, c in enumerate(comps) if c != zero]

    z = spec.x.payload
    vt, wt = ctx.gram_row(R, v.comps), ctx.gram_row(R, w.comps)
    a, b = [zero] * d, [zero] * d
    R.axpy(a, wt, z)
    corr = R.neg(R.mul(R.mul(z, z), ctx.quad(w).payload))
    if corr != zero:
        R.axpy(a, vt, corr)
    R.axpy(b, vt, R.neg(z))
    updates = [(support(v.comps), support(a)), (support(w.comps), support(b))]
    rows = m.rows
    # Both combinations are read from m before either is added back.  On
    # the left they are two scratch rows; on the right m*v and m*w are
    # built in two scratch columns at d and d + 1, dropped at the end.
    if left:
        sums = [[zero] * d for _ in updates]
        for acc, (_, coeffs) in zip(sums, updates):
            for k, c in coeffs:
                R.axpy(acc, rows[k], c)
        for (targets, _), acc in zip(updates, sums):
            for i, t in targets:
                R.axpy(rows[i], acc, t)
    else:
        for row in rows:
            row += (zero, zero)
        for s, (sources, _) in enumerate(updates, d):
            for k, t in sources:
                R.col_axpy(rows, s, k, t)
        for s, (_, coeffs) in enumerate(updates, d):
            for k, c in coeffs:
                R.col_axpy(rows, k, s, c)
        for row in rows:
            del row[d:]


def transvection_matrix(spec: TransvectionSpec) -> Matrix:
    """E(v, w, x) as a matrix: the identity run through apply_transvection."""
    m = Matrix.identity(spec.x.ring, spec.ctx.dim)
    apply_transvection(m, spec, left=True)
    return m


def is_alternating(m: Matrix) -> bool:
    R = m.ring
    for i in range(m.dim):
        if not R.is_zero(m.rows[i][i]):
            return False
        for j in range(i + 1, m.dim):
            if m.rows[i][j] != R.neg(m.rows[j][i]):
                return False
    return True


def solve_alternating(v: Vector, w: Vector, witness: OrderIdealWitness) -> Matrix:
    """Alternating alpha with alpha*w = v*x, for x = witness.target in o(w).

    alpha = sum_i c_i * (v*e_i^T - e_i*v^T), which lands on
    alpha[r][c] = v_r*c_c - c_r*v_c.
    """
    R = v.ring
    if w.ring != R or witness.target.ring != R:
        raise RingMismatch("vectors and witness must share one ring")
    if len(v) != len(w):
        raise IndexOutOfRange("columns must have equal length")
    if not v.dot(w) == 0:
        raise NotOrthogonalPair("v^T * w must vanish")
    if len(witness.sources) != len(w):
        raise BadWitness("witness must combine the entries of w")
    for s, ent in zip(witness.sources, w.comps):
        if s.payload != ent:
            raise BadWitness("witness sources disagree with w")
    c = [coef.payload for coef in witness.combiners]
    rows = []
    for r in range(len(v)):
        row = []
        for col in range(len(v)):
            row.append(R.add(R.mul(v.comps[r], c[col]), R.neg(R.mul(c[r], v.comps[col]))))
        rows.append(row)
    return Matrix(R, rows, copy=False)


def transvection_split3(spec: TransvectionSpec):
    """Split E(v, (w0, w', 0), x) as E(first) * eval(word); returns (first, word).

    first = E((0, w', 0), (0, 0, v''), -x) is diag(1, alpha, alpha^-T)
    with alpha = I - x*w'*(v'')^T.  The word holds F4_ij(x*(v'_i*w'_j -
    w'_i*v'_j)) for i < j, the alternating middle block, then
    F2_i(-x*w0*v''_i) and F1_i(x*(v0*w'_i - w0*v'_i)) for the border
    rows; zero letters are left out.  q(v) = 0 and phi(v, w) = 0 with
    the center checks below give v'.v'' = v''.w' = 0, which kills
    every cross term between the factors.
    """
    ctx = spec.ctx
    if not ctx.odd:
        raise IndexOutOfRange("the three-factor splitting lives in the odd space")
    x = spec.x
    R = x.ring
    n = ctx.n
    v, w = spec.v, spec.w
    v0, w0 = v[0], w[0]
    checks = [
        (all(R.is_zero(c) for c in w.comps[n + 1:]), "w'' must vanish"),
        (v0 * v0 == 0, "v0^2 must vanish"),
        (w0 * w0 == 0, "w0^2 must vanish"),
        (v0 * w0 == 0, "v0*w0 must vanish"),
    ]
    for ok, why in checks:
        if not ok:
            raise HypothesisViolated(why)

    zeros = [R.zero] * n
    wp = Vector(R, [R.zero] + w.comps[1:n + 1] + zeros, copy=False)
    vdp = Vector(R, [R.zero] + zeros + v.comps[n + 1:], copy=False)
    first = TransvectionSpec(ctx, wp, vdp, -x)

    letters = []

    def emit(family, i, j, z):
        if not z.is_zero():
            letters.append(GenLabel(family, i, j, z))

    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            emit("F4", i, j, x * (v[i] * w[j] - w[i] * v[j]))
    for i in range(1, n + 1):
        emit("F2", i, None, -(x * w0 * v[n + i]))
        emit("F1", i, None, x * (v0 * w[i] - w0 * v[i]))
    return first, Word(ctx, R, letters)


def split_w_pair(v: Vector, w: Vector, y: Scalar, alpha: Matrix):
    """Split w*y = w1 + w2 with both summands orthogonal to v.

    v and w are odd-space columns (v0, v', v'') of one length 2n + 1.
    alpha must come from solve_alternating for the halved columns:
    alpha * (v0/2, v'') = (v0/2, v') * y.  The first-row compatibility
    w0*y = alpha_0 * (w0, w'') is what makes phi(v, w1) vanish; it is
    checked, not assumed.  w2 has w'' = 0.
    """
    R = y.ring
    if v.ring != R or w.ring != R or alpha.ring != R:
        raise RingMismatch("split data must share one ring")
    if len(w) != len(v) or len(v) % 2 == 0:
        raise IndexOutOfRange(f"v and w need one odd length, got {len(v)} and {len(w)}")
    ctx = FormContext(len(v) // 2)
    n = ctx.n
    if alpha.dim != n + 1:
        raise IndexOutOfRange(f"alpha must have size {n + 1}")
    TransvectionSpec(ctx, v, w, y)  # q(v) = 0 and phi(v, w) = 0
    v0, w0 = v[0], w[0]
    if not v0 * v0 == 0:
        raise HypothesisViolated("v0^2 must vanish")
    if not v0 * w0 == 0:
        raise HypothesisViolated("v0*w0 must vanish")
    if not is_alternating(alpha):
        raise HypothesisViolated("alpha must be alternating")

    vc, wc = v.comps, w.comps
    half0 = R.mul(R.half, vc[0])
    lower = Vector(R, [half0] + vc[n + 1:])
    upper = Vector(R, [half0] + vc[1:n + 1])
    if alpha.apply(lower) != upper.scale(y):
        raise HypothesisViolated("alpha does not carry (v0/2, v'') to (v0/2, v')*y")

    at = alpha.apply(Vector(R, [wc[0]] + wc[n + 1:]))
    if not w0 * y == at[0]:
        raise HypothesisViolated("first-row compatibility w0*y = alpha_0*(w0, w'') fails")

    w1 = Vector(R, at.comps + [R.mul(c, y.payload) for c in wc[n + 1:]], copy=False)
    top = Vector(R, wc[:n + 1]).scale(y) - at
    w2 = Vector(R, top.comps + [R.zero] * n, copy=False)
    return w1, w2
