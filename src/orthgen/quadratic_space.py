"""Split quadratic spaces and exact matrix arithmetic over them.

The odd space of rank n has coordinates (x0, u1..un, v1..vn), stored
0-based: the center x0 at index 0, u_i at index i, v_i at index n + i.
Its bilinear form is phi(x, y) = 2*x0*y0 + sum_i (x_ui*y_vi + x_vi*y_ui),
with quadratic form q(x) = x0^2 + sum_i x_ui*x_vi, so phi(x, x) = 2*q(x).
The even space drops the center coordinate and shifts everything down
by one.  Matrices and vectors hold raw ring payloads; indexing hands
back Scalars.  A matrix changes in place by line operations (row_add,
col_add, row_scale, col_scale), through which the letter and
transvection kernels act; the form tests pair columns and congruence
compares entries, so the package takes no dense product and builds no
matrix sum or difference.
"""

from __future__ import annotations

from .errors import (
    IndexOutOfRange,
    JSONFormatError,
    NotMonomial,
    NotUnipotent,
    RingMismatch,
    UnsupportedRing,
)
from .rings import IdealDescriptor, Ring, Scalar, residue_ring, residue_scalar, ring_from_string

__all__ = [
    "Matrix",
    "Vector",
    "FormContext",
    "is_orthogonal",
    "similitude_multiplier",
    "monomial_pattern",
    "unitriangular_inverse",
    "matrices_congruent",
    "matrix_residue",
    "one_perp",
    "embed_blocks",
    "split_blocks",
]


def _payload(ring: Ring, x):
    """x as a payload of ring: a Scalar's own after a ring check, else ring.from_int(x)."""
    if isinstance(x, Scalar):
        if x.ring != ring:
            raise RingMismatch(f"{x.ring.descriptor} vs {ring.descriptor}")
        return x.payload
    return ring.from_int(x)


class Vector:
    """Column vector of ring payloads."""

    __slots__ = ("ring", "comps")

    def __init__(self, ring: Ring, comps, copy: bool = True) -> None:
        self.ring = ring
        self.comps = list(comps) if copy else comps

    @classmethod
    def zero(cls, ring: Ring, dim: int) -> "Vector":
        return cls(ring, [ring.zero] * dim, copy=False)

    @classmethod
    def basis(cls, ring: Ring, dim: int, idx: int) -> "Vector":
        if not 0 <= idx < dim:
            raise IndexOutOfRange(f"index {idx} outside 0..{dim - 1}")
        comps = [ring.zero] * dim
        comps[idx] = ring.one
        return cls(ring, comps, copy=False)

    @classmethod
    def from_scalars(cls, ring: Ring, items) -> "Vector":
        return cls(ring, [_payload(ring, x) for x in items], copy=False)

    def __len__(self) -> int:
        return len(self.comps)

    def __getitem__(self, idx: int) -> Scalar:
        return Scalar(self.ring, self.comps[idx])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Vector)
            and other.ring == self.ring
            and other.comps == self.comps
        )

    def __repr__(self) -> str:
        return "(" + ", ".join(self.ring.show(c) for c in self.comps) + ")"

    def copy(self) -> "Vector":
        return Vector(self.ring, self.comps)

    def __add__(self, other: "Vector") -> "Vector":
        R = self.ring
        if other.ring != R:
            raise RingMismatch(f"{R.descriptor} vs {other.ring.descriptor}")
        return Vector(R, [R.add(a, b) for a, b in zip(self.comps, other.comps)], copy=False)

    def __sub__(self, other: "Vector") -> "Vector":
        return self + (-other)

    def __neg__(self) -> "Vector":
        R = self.ring
        return Vector(R, [R.neg(a) for a in self.comps], copy=False)

    def scale(self, x: Scalar) -> "Vector":
        R = self.ring
        if x.ring != R:
            raise RingMismatch(f"{R.descriptor} vs {x.ring.descriptor}")
        p = x.payload
        return Vector(R, [R.mul(p, a) for a in self.comps], copy=False)

    def dot(self, other: "Vector") -> Scalar:
        R = self.ring
        if other.ring != R:
            raise RingMismatch(f"{R.descriptor} vs {other.ring.descriptor}")
        acc = R.zero
        for a, b in zip(self.comps, other.comps):
            acc = R.add(acc, R.mul(a, b))
        return Scalar(R, acc)

    def is_zero(self) -> bool:
        R = self.ring
        return all(R.is_zero(c) for c in self.comps)


class Matrix:
    """Square matrix of ring payloads with exact arithmetic."""

    __slots__ = ("ring", "dim", "rows")

    def __init__(self, ring: Ring, rows, copy: bool = True) -> None:
        self.ring = ring
        self.rows = [list(r) for r in rows] if copy else rows
        self.dim = len(self.rows)

    @classmethod
    def identity(cls, ring: Ring, dim: int) -> "Matrix":
        rows = [[ring.zero] * dim for _ in range(dim)]
        for i in range(dim):
            rows[i][i] = ring.one
        return cls(ring, rows, copy=False)

    @classmethod
    def zeros(cls, ring: Ring, dim: int) -> "Matrix":
        return cls(ring, [[ring.zero] * dim for _ in range(dim)], copy=False)

    @classmethod
    def from_scalars(cls, ring: Ring, rows) -> "Matrix":
        out = [[_payload(ring, x) for x in r] for r in rows]
        d = len(out)
        if any(len(r) != d for r in out):
            raise IndexOutOfRange("matrix rows must all have the full dimension")
        return cls(ring, out, copy=False)

    def copy(self) -> "Matrix":
        return Matrix(self.ring, [r[:] for r in self.rows], copy=False)

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return Scalar(self.ring, self.rows[i][j])

    def set(self, i: int, j: int, x) -> None:
        self.rows[i][j] = _payload(self.ring, x)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and other.ring == self.ring
            and other.rows == self.rows
        )

    def __repr__(self) -> str:
        R = self.ring
        body = "\n".join(
            "[" + ", ".join(R.show(c) for c in row) + "]" for row in self.rows
        )
        return f"Matrix({R.descriptor}, dim={self.dim})\n{body}"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The dense product, which no module of the package takes.

        It stays only because the benchmark builds its request pools
        with it and its tracer counts the calls made to it.
        """
        R = self.ring
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.ring != R:
            raise RingMismatch(f"{R.descriptor} vs {other.ring.descriptor}")
        if other.dim != self.dim:
            raise IndexOutOfRange(f"dimension mismatch {self.dim} vs {other.dim}")
        d = self.dim
        brows = other.rows
        out = []
        for i in range(d):
            arow = self.rows[i]
            orow = [R.zero] * d
            for k in range(d):
                a = arow[k]
                if R.is_zero(a):
                    continue
                brow = brows[k]
                for j in range(d):
                    b = brow[j]
                    if not R.is_zero(b):
                        orow[j] = R.add(orow[j], R.mul(a, b))
            out.append(orow)
        return Matrix(R, out, copy=False)

    def scale(self, x: Scalar) -> "Matrix":
        R = self.ring
        if x.ring != R:
            raise RingMismatch(f"{R.descriptor} vs {x.ring.descriptor}")
        p = x.payload
        return Matrix(R, [[R.mul(p, a) for a in r] for r in self.rows], copy=False)

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, [list(col) for col in zip(*self.rows)], copy=False)

    def apply(self, v: Vector) -> Vector:
        R = self.ring
        if v.ring != R:
            raise RingMismatch(f"{R.descriptor} vs {v.ring.descriptor}")
        out = []
        for row in self.rows:
            acc = R.zero
            for a, b in zip(row, v.comps):
                if not (R.is_zero(a) or R.is_zero(b)):
                    acc = R.add(acc, R.mul(a, b))
            out.append(acc)
        return Vector(R, out, copy=False)

    def row_add(self, target: int, source: int, coeff) -> None:
        """row[target] += coeff * row[source], coeff a raw payload."""
        R = self.ring
        if R.is_zero(coeff):
            return
        trow = self.rows[target]
        srow = self.rows[source]
        for j in range(self.dim):
            s = srow[j]
            if not R.is_zero(s):
                trow[j] = R.add(trow[j], R.mul(coeff, s))

    def col_add(self, target: int, source: int, coeff) -> None:
        """col[target] += coeff * col[source], coeff a raw payload."""
        R = self.ring
        if R.is_zero(coeff):
            return
        for row in self.rows:
            s = row[source]
            if not R.is_zero(s):
                row[target] = R.add(row[target], R.mul(coeff, s))

    def row_scale(self, target: int, coeff) -> None:
        """row[target] *= coeff, coeff a raw payload."""
        R = self.ring
        row = self.rows[target]
        for j, s in enumerate(row):
            if not R.is_zero(s):
                row[j] = R.mul(coeff, s)

    def col_scale(self, target: int, coeff) -> None:
        """col[target] *= coeff, coeff a raw payload."""
        R = self.ring
        for row in self.rows:
            s = row[target]
            if not R.is_zero(s):
                row[target] = R.mul(coeff, s)

    def to_json(self):
        R = self.ring
        return {
            "ring": R.descriptor,
            "dim": self.dim,
            "entries": [[R.to_json(a) for a in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, obj) -> "Matrix":
        if not isinstance(obj, dict) or set(obj) != {"ring", "dim", "entries"}:
            raise JSONFormatError(f"bad matrix object: keys {sorted(obj)!r}" if isinstance(obj, dict) else "matrix must be an object")
        try:
            ring = ring_from_string(obj["ring"])
        except (UnsupportedRing, TypeError) as exc:
            raise JSONFormatError(f"bad matrix ring: {exc}") from None
        dim = obj["dim"]
        entries = obj["entries"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise JSONFormatError("dim must be a positive integer")
        if not isinstance(entries, list) or len(entries) != dim:
            raise JSONFormatError("entries must have dim rows")
        rows = []
        for r in entries:
            if not isinstance(r, list) or len(r) != dim:
                raise JSONFormatError("entries must have dim columns per row")
            rows.append([ring.from_json(x) for x in r])
        return cls(ring, rows, copy=False)


class FormContext:
    """Index bookkeeping for the split space of rank n, odd or even."""

    __slots__ = ("n", "odd", "dim")

    def __init__(self, n: int, odd: bool = True) -> None:
        if not isinstance(n, int) or n < 1:
            raise IndexOutOfRange(f"rank must be a positive integer, got {n!r}")
        self.n = n
        self.odd = odd
        self.dim = 2 * n + 1 if odd else 2 * n

    def _check(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"hyperbolic index {i} outside 1..{self.n}")

    def u(self, i: int) -> int:
        self._check(i)
        return i if self.odd else i - 1

    def v(self, i: int) -> int:
        self._check(i)
        return self.n + i if self.odd else self.n + i - 1

    def delta(self, idx: int) -> int:
        """The involution fixing the center and swapping u_i with v_i."""
        n = self.n
        if self.odd:
            if idx == 0:
                return 0
            return idx + n if idx <= n else idx - n
        return idx + n if idx < n else idx - n

    def phi(self, x: Vector, y: Vector) -> Scalar:
        R = x.ring
        if y.ring != R:
            raise RingMismatch(f"{R.descriptor} vs {y.ring.descriptor}")
        acc = R.zero
        if self.odd:
            acc = R.mul(R.from_int(2), R.mul(x.comps[0], y.comps[0]))
        for i in range(1, self.n + 1):
            ui, vi = self.u(i), self.v(i)
            acc = R.add(acc, R.mul(x.comps[ui], y.comps[vi]))
            acc = R.add(acc, R.mul(x.comps[vi], y.comps[ui]))
        return Scalar(R, acc)

    def quad(self, x: Vector) -> Scalar:
        R = x.ring
        acc = R.zero
        if self.odd:
            acc = R.mul(x.comps[0], x.comps[0])
        for i in range(1, self.n + 1):
            acc = R.add(acc, R.mul(x.comps[self.u(i)], x.comps[self.v(i)]))
        return Scalar(R, acc)

    def tilde(self, x: Vector) -> Vector:
        """The row vector x^T * gram, returned as a Vector."""
        R = x.ring
        out = [R.zero] * self.dim
        if self.odd:
            out[0] = R.mul(R.from_int(2), x.comps[0])
        for i in range(1, self.n + 1):
            ui, vi = self.u(i), self.v(i)
            out[ui] = x.comps[vi]
            out[vi] = x.comps[ui]
        return Vector(R, out, copy=False)


def _form_multiplier(M: Matrix, ctx: FormContext, mult):
    """mu with M^T * gram * M == mu * gram, or None if there is none.

    Equivalently M's columns pair like the basis scaled by mu,
    phi(col_i, col_j) == mu * gram[i][j].  That pairing matrix is
    symmetric, so only i <= j is tested: each column is shuffled once by
    the form (u and v swapped, the center doubled, as in
    FormContext.tilde), its nonzero entries are dotted with the columns
    up to it, and the first mismatch ends the test.  No matrix is built
    and no product taken.  mult is mu's payload if known; if None, mu is
    read off the first pairing the form does not send to zero (the
    center with itself, halved, or u_1 with v_1 in the even space).
    """
    R = M.ring
    if M.dim != ctx.dim:
        raise IndexOutOfRange(f"matrix dim {M.dim} does not match form dim {ctx.dim}")
    add, mul, is_zero = R.add, R.mul, R.is_zero
    zero = R.zero
    wants = None if mult is None else (add(mult, mult), mult)
    partner = [ctx.delta(k) for k in range(ctx.dim)]
    cols = list(zip(*M.rows))
    for j, col in enumerate(cols):
        shuffled = []
        for k, p in enumerate(partner):
            a = col[p]
            if not is_zero(a):
                shuffled.append((k, add(a, a) if k == p else a))
        pj = partner[j]
        for i in range(j + 1):
            other = cols[i]
            acc = zero
            for k, a in shuffled:
                b = other[k]
                if not is_zero(b):
                    acc = add(acc, mul(a, b))
            if i != pj:
                want = zero
            elif mult is None:
                mult = mul(R.half, acc) if i == j else acc
                wants = (add(mult, mult), mult)
                want = acc
            else:
                want = wants[0] if i == j else wants[1]
            if acc != want:
                return None
    return mult


def is_orthogonal(M: Matrix, ctx: FormContext) -> bool:
    """Does M preserve the bilinear form: M^T * gram * M == gram.

    The multiplier-one case of similitude_multiplier's column pairing.
    """
    return _form_multiplier(M, ctx, M.ring.one) is not None


def similitude_multiplier(M: Matrix, ctx: FormContext):
    """The Scalar mu with M^T * gram * M == mu * gram, or None if M is no similitude."""
    mult = _form_multiplier(M, ctx, None)
    return None if mult is None else Scalar(M.ring, mult)


def monomial_pattern(M: Matrix):
    """Column -> row map of the unique unit entry per line, else NotMonomial."""
    R = M.ring
    d = M.dim
    sigma = []
    used_rows = set()
    for j in range(d):
        hits = [i for i in range(d) if not R.is_zero(M.rows[i][j])]
        if len(hits) != 1:
            raise NotMonomial(f"column {j} has {len(hits)} nonzero entries")
        i = hits[0]
        if i in used_rows:
            raise NotMonomial(f"row {i} holds two nonzero entries")
        if not R.is_unit(M.rows[i][j]):
            raise NotMonomial(f"entry ({i}, {j}) is not a unit")
        used_rows.add(i)
        sigma.append(i)
    return sigma


def _is_unitriangular(m: Matrix, upper: bool) -> bool:
    R = m.ring
    d = m.dim
    for i in range(d):
        if m.rows[i][i] != R.one:
            return False
        for j in range(i) if upper else range(i + 1, d):
            if not R.is_zero(m.rows[i][j]):
                return False
    return True


def unitriangular_inverse(M: Matrix) -> Matrix:
    """Inverse of a unitriangular matrix by back or forward substitution.

    Column c of the inverse X solves M * x = e_c: x_c = 1, and each
    further entry is minus M's row dotted with the entries already found
    (upward from c for upper M, downward for lower).
    """
    R = M.ring
    d = M.dim
    rows = M.rows
    upper = _is_unitriangular(M, True)
    if not (upper or _is_unitriangular(M, False)):
        raise NotUnipotent("matrix is not unitriangular")
    out = Matrix.identity(R, d)
    inv = out.rows
    for c in range(d):
        order = range(c - 1, -1, -1) if upper else range(c + 1, d)
        for i in order:
            span = range(i + 1, c + 1) if upper else range(c, i)
            acc = R.zero
            for k in span:
                a, x = rows[i][k], inv[k][c]
                if not (R.is_zero(a) or R.is_zero(x)):
                    acc = R.add(acc, R.mul(a, x))
            inv[i][c] = R.neg(acc)
    return out


def matrices_congruent(A: Matrix, B: Matrix, ideal: IdealDescriptor) -> bool:
    """Entrywise membership of A - B in the ideal, with no matrix built."""
    R = A.ring
    if B.ring != R:
        raise RingMismatch(f"{R.descriptor} vs {B.ring.descriptor}")
    if A.dim != B.dim:
        raise IndexOutOfRange(f"dimension mismatch {A.dim} vs {B.dim}")
    return all(ideal.member(R, R.add(a, R.neg(b))) for ra, rb in zip(A.rows, B.rows) for a, b in zip(ra, rb))


def matrix_residue(M: Matrix) -> Matrix:
    """Entrywise reduction of a matrix over a local scalar ring mod its maximal ideal."""
    R = M.ring
    S = residue_ring(R)
    rows = [[residue_scalar(Scalar(R, a)).payload for a in row] for row in M.rows]
    return Matrix(S, rows, copy=False)


def one_perp(M: Matrix) -> Matrix:
    """Lift an even-space matrix to the odd space, acting trivially on the center."""
    R = M.ring
    d = M.dim
    if d % 2:
        raise IndexOutOfRange(f"even-space matrix must have even dimension, got {d}")
    rows = [[R.zero] * (d + 1) for _ in range(d + 1)]
    rows[0][0] = R.one
    for i in range(d):
        rows[i + 1][1:] = M.rows[i]
    return Matrix(R, rows, copy=False)


def embed_blocks(ctx: FormContext, ring: Ring, uu=None, uv=None, vu=None, vv=None) -> Matrix:
    """The identity with n x n blocks placed on the u/v coordinates.

    uu, uv, vu, vv land on rows u and columns u, rows u and columns v,
    and so on; a block left as None keeps the identity there, and the
    center row and column are untouched.
    """
    m = Matrix.identity(ring, ctx.dim)
    n, u, v = ctx.n, ctx.u(1), ctx.v(1)
    for block, r0, c0 in ((uu, u, u), (uv, u, v), (vu, v, u), (vv, v, v)):
        if block is None:
            continue
        if block.dim != n:
            raise IndexOutOfRange(f"block must have size {n}, got {block.dim}")
        for i in range(n):
            m.rows[r0 + i][c0 : c0 + n] = block.rows[i]
    return m


def split_blocks(M: Matrix, ctx: FormContext):
    """The (uu, uv, vu, vv) blocks of M, the reading inverse of embed_blocks."""
    n, u, v = ctx.n, ctx.u(1), ctx.v(1)
    if M.dim != ctx.dim:
        raise IndexOutOfRange(f"matrix dim {M.dim} does not match form dim {ctx.dim}")

    def block(r0, c0):
        return Matrix(M.ring, [M.rows[r0 + i][c0 : c0 + n] for i in range(n)], copy=False)

    return block(u, u), block(u, v), block(v, u), block(v, v)
