"""Split quadratic spaces and exact matrix arithmetic over them.

The odd space of rank n has coordinates (x0, u1..un, v1..vn), stored
0-based: the center x0 at index 0, u_i at index i, v_i at index n + i.
Its bilinear form is phi(x, y) = 2*x0*y0 + sum_i (x_ui*y_vi + x_vi*y_ui),
with quadratic form q(x) = x0^2 + sum_i x_ui*x_vi, so phi(x, x) = 2*q(x).
The even space drops the center coordinate and shifts everything down
by one.  The Gram matrix is written once, in FormContext.gram_row; tilde,
phi, quad, the column test behind is_orthogonal and similitude_multiplier,
and the transvection kernel all read it.  Matrices and vectors hold raw
ring payloads; a vector's indexing hands back Scalars.  tilde, dot, +
and Matrix.apply refuse a vector of the wrong length.  A matrix changes
in place by line operations (row_add, col_add, row_scale, col_scale),
through which the letter and transvection kernels act; "line plus
scaled line" is the ring's own in-place op (Ring.axpy on a row,
Ring.col_axpy on a column), which the modular rings run as plain integer
arithmetic.  The form tests pair columns and congruence compares
entries, so the package takes no dense product and builds no matrix sum
or difference.
"""

from __future__ import annotations

import json

from .errors import (
    IndexOutOfRange,
    JSONFormatError,
    NotMonomial,
    NotUnipotent,
    RingMismatch,
    UnsupportedRing,
)
from .rings import IdealDescriptor, Ring, Scalar, residue_ring, ring_from_string

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


def _check_length(got: int, want: int) -> None:
    if got != want:
        raise IndexOutOfRange(f"vector length {got} does not match {want}")


def _dot(R: Ring, xs, ys):
    """The payload sum of x*y over paired entries of xs and ys, of equal lengths."""
    _check_length(len(ys), len(xs))
    acc = R.zero
    for a, b in zip(xs, ys):
        if not (R.is_zero(a) or R.is_zero(b)):
            acc = R.add(acc, R.mul(a, b))
    return acc


class Vector:
    """Column vector of ring payloads."""

    __slots__ = ("ring", "comps")

    def __init__(self, ring: Ring, comps, copy: bool = True) -> None:
        self.ring = ring
        self.comps = list(comps) if copy else comps

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

    def __add__(self, other: "Vector") -> "Vector":
        R = self.ring
        if other.ring != R:
            raise RingMismatch(f"{R.descriptor} vs {other.ring.descriptor}")
        _check_length(len(other.comps), len(self.comps))
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
        return Scalar(R, _dot(R, self.comps, other.comps))


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

    def copy(self) -> "Matrix":
        return Matrix(self.ring, [r[:] for r in self.rows], copy=False)

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
        return Vector(R, [_dot(R, row, v.comps) for row in self.rows], copy=False)

    def row_add(self, target: int, source: int, coeff) -> None:
        """row[target] += coeff * row[source], coeff a raw payload."""
        R = self.ring
        if not R.is_zero(coeff):
            R.axpy(self.rows[target], self.rows[source], coeff)

    def col_add(self, target: int, source: int, coeff) -> None:
        """col[target] += coeff * col[source], coeff a raw payload."""
        R = self.ring
        if not R.is_zero(coeff):
            R.col_axpy(self.rows, target, source, coeff)

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

    def to_text(self) -> str:
        """Canonical JSON text, keys sorted, at one ring to_text call per entry."""
        text = self.ring.to_text
        rows = ",".join("[" + ",".join(map(text, row)) + "]" for row in self.rows)
        return f'{{"dim":{self.dim},"entries":[{rows}],"ring":"{self.ring.descriptor}"}}'

    def to_json(self):
        return json.loads(self.to_text())

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
            rows.append(ring.row_from_json(r))
        return cls(ring, rows, copy=False)


class FormContext:
    """Index bookkeeping for the split space of rank n, odd or even."""

    __slots__ = ("n", "odd", "dim")

    def __init__(self, n: int, odd: bool = True) -> None:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
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

    def gram_row(self, ring: Ring, x) -> list:
        """x^T * gram for a payload sequence x: its u and v halves swapped, x0 doubled."""
        n = self.n
        if self.odd:
            return [ring.add(x[0], x[0]), *x[n + 1 :], *x[1 : n + 1]]
        return [*x[n:], *x[:n]]

    def tilde(self, x: Vector) -> Vector:
        """The row vector x^T * gram, returned as a Vector."""
        _check_length(len(x.comps), self.dim)
        return Vector(x.ring, self.gram_row(x.ring, x.comps), copy=False)

    def phi(self, x: Vector, y: Vector) -> Scalar:
        return self.tilde(x).dot(y)

    def quad(self, x: Vector) -> Scalar:
        R = x.ring
        return Scalar(R, R.mul(R.half, self.tilde(x).dot(x).payload))


def _check_dim(M: Matrix, ctx: FormContext) -> None:
    if M.dim != ctx.dim:
        raise IndexOutOfRange(f"matrix dim {M.dim} does not match form dim {ctx.dim}")


def _scales_form(M: Matrix, ctx: FormContext, mult) -> bool:
    """Does M^T * gram * M == mult * gram, for mult a payload.

    Entry (i, j) of the left side is column j's gram row dotted with
    column i, and of the right side entry i of mult*e_j's gram row.  The
    pairing matrix is symmetric, so only i <= j is tested: each column's
    gram row is dotted on its nonzero entries with the columns up to it,
    and the first mismatch ends the test.  No matrix is built and no
    product taken.  M's size is the caller's to check.
    """
    R = M.ring
    add, mul, is_zero = R.add, R.mul, R.is_zero
    zero = R.zero
    scaled = [zero] * ctx.dim
    cols = list(zip(*M.rows))
    for j, col in enumerate(cols):
        row = [(k, a) for k, a in enumerate(ctx.gram_row(R, col)) if not is_zero(a)]
        scaled[j] = mult
        wants = ctx.gram_row(R, scaled)
        scaled[j] = zero
        for i in range(j + 1):
            other = cols[i]
            acc = zero
            for k, a in row:
                b = other[k]
                if not is_zero(b):
                    acc = add(acc, mul(a, b))
            if acc != wants[i]:
                return False
    return True


def is_orthogonal(M: Matrix, ctx: FormContext) -> bool:
    """Does M preserve the bilinear form: M^T * gram * M == gram."""
    _check_dim(M, ctx)
    return _scales_form(M, ctx, M.ring.one)


def similitude_multiplier(M: Matrix, ctx: FormContext):
    """The Scalar mu with M^T * gram * M == mu * gram, or None if M is no similitude.

    mu is read off one pairing, q of the center's column in the odd
    space, phi of the u_1 and v_1 columns in the even one, and then
    tested on every pair of columns.
    """
    _check_dim(M, ctx)
    R = M.ring

    def col(j):
        return Vector(R, [row[j] for row in M.rows], copy=False)

    mult = ctx.quad(col(0)) if ctx.odd else ctx.phi(col(ctx.u(1)), col(ctx.v(1)))
    return mult if _scales_form(M, ctx, mult.payload) else None


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
    """Entrywise membership of A - B in the ideal, validated once, with no matrix built."""
    R = A.ring
    if B.ring != R:
        raise RingMismatch(f"{R.descriptor} vs {B.ring.descriptor}")
    if A.dim != B.dim:
        raise IndexOutOfRange(f"dimension mismatch {A.dim} vs {B.dim}")
    ideal.validate_for(R)
    return all(ideal._member(R, R.add(a, R.neg(b))) for ra, rb in zip(A.rows, B.rows) for a, b in zip(ra, rb))


def matrix_residue(M: Matrix) -> Matrix:
    """Entrywise reduction of a matrix over a local scalar ring mod its maximal ideal."""
    S = residue_ring(M.ring)
    reduce = M.ring.reduce
    return Matrix(S, [[reduce(a) for a in row] for row in M.rows], copy=False)


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
    _check_dim(M, ctx)

    def block(r0, c0):
        return Matrix(M.ring, [M.rows[r0 + i][c0 : c0 + n] for i in range(n)], copy=False)

    return block(u, u), block(u, v), block(v, u), block(v, v)
