"""Constructive factorizations of odd orthogonal matrices.

The central routine is tmt_decompose, which drives an orthogonal matrix
over a field to a monomial core by multiplying standard letters on both
sides, then returns the two letter words whose product with the core
reproduces the input exactly.  The elimination is a deterministic pair
peeling: for each hyperbolic pair in turn, the corresponding short
column is reduced to a single entry by row operations coming from F1,
F3, F4 letters, and the pivot row is then cleared by the transposed
column operations.  Isotropy of the rows and columns of an orthogonal
matrix makes the final entry of each line vanish for free, and once all
pairs are peeled the leftover matrix is forced to be monomial.

The other factorizations are closed-form: unipotent blocks map to F3
words column by column (no cross terms appear when the columns are
taken outermost first), alternating blocks to F4 or F5 words over the
upper triangle, and the block-triangular shapes combine the two.

Over a local scalar ring, local_decompose reduces mod the maximal
ideal, decomposes the residue, lifts the letters (the monomial core
among them, as PERM and DIAG letters) canonically, and certifies the
remaining factor as orthogonal and congruent to the identity.

For polynomial matrices, theta_conjugate conjugates a matrix by the
theta scaling over the Laurent ring and reports whether the result
stays polynomial, and check_horrocks_instance verifies a splitting
certificate.  The identities these rest on, such as the conjugation of
X-divisible transvections (L5.1), are identity-suite items.
"""

from __future__ import annotations

import json

from .errors import (
    BadIndex,
    DecompositionError,
    IndexOutOfRange,
    JSONFormatError,
    NonElementaryLetter,
    NotAlternating,
    NotOrthogonal,
    NotTOShape,
    NotUnipotent,
    OrthgenError,
    RingMismatch,
    UnsupportedRing,
)
from .generators import (
    F_FAMILIES,
    GenLabel,
    Word,
    _apply_letter,
    _checked_word,
    apply_word,
    eval_word,
    word_from_json,
)
from .quadratic_space import (
    FormContext,
    Matrix,
    _is_unitriangular,
    is_orthogonal,
    matrix_residue,
    monomial_pattern,
    split_blocks,
)
from .rings import (
    LaurentRing,
    PolynomialRing,
    Ring,
    Scalar,
    residue_ring,
)
from .transvections import is_alternating

__all__ = [
    "TmtDecomposition",
    "LocalDecomposition",
    "HorrocksInstance",
    "factor_unipotent",
    "factor_alt",
    "factor_to",
    "tmt_decompose",
    "mo_split",
    "local_decompose",
    "theta_conjugate",
    "check_horrocks_instance",
]


def _require_odd(ctx: FormContext) -> None:
    if not ctx.odd:
        raise BadIndex("factorization lives in the odd space")


def _validate_tower_word(word: Word) -> None:
    """Letters must generate the triangular subgroup: F1, F3, F4 freely,
    F2 only at parameter one half."""
    R = word.ring
    half = Scalar(R, R.half)
    for letter in word.letters:
        fam = letter.family
        if fam in ("F1", "F3", "F4"):
            continue
        if fam == "F2" and letter.param == half:
            continue
        raise NotTOShape(f"letter {fam} breaks the triangular tower")


class TmtDecomposition:
    """tau1 * mu * tau2 with tower words around a monomial core.

    The constructor certifies mu as an orthogonal monomial and keeps its
    PERM and DIAG letters as core, so nothing splits mu again.
    """

    __slots__ = ("tau1", "mu", "tau2", "core")
    _EXTRA = ()  # matrix parts a subclass adds after tau2, by JSON key

    def __init__(self, tau1: Word, mu: Matrix, tau2: Word) -> None:
        if tau1.ring != mu.ring or tau2.ring != mu.ring:
            raise RingMismatch("decomposition parts must share one ring")
        if tau1.ctx.dim != mu.dim or tau2.ctx.dim != mu.dim:
            raise IndexOutOfRange("word contexts do not match the core size")
        _validate_tower_word(tau1)
        _validate_tower_word(tau2)
        self.core = mo_split(mu, tau1.ctx)
        self.tau1 = tau1
        self.mu = mu
        self.tau2 = tau2

    def recompose(self) -> Matrix:
        out = self.mu.copy()
        apply_word(out, self.tau1, left=True)
        apply_word(out, self.tau2)
        return out

    def to_text(self) -> str:
        """Canonical JSON text: each part's own text, under its key, keys sorted."""
        parts = {key: getattr(self, key).to_text() for key in ("tau1", "mu", "tau2") + self._EXTRA}
        return "{" + ",".join(f'"{key}":{parts[key]}' for key in sorted(parts)) + "}"

    @classmethod
    def from_json(cls, obj) -> "TmtDecomposition":
        keys = ("tau1", "mu", "tau2") + cls._EXTRA
        if not isinstance(obj, dict) or not set(keys) <= set(obj):
            raise JSONFormatError("decomposition needs " + ", ".join(f"'{k}'" for k in keys))
        return cls(
            word_from_json(obj["tau1"]),
            Matrix.from_json(obj["mu"]),
            word_from_json(obj["tau2"]),
            *(Matrix.from_json(obj[key]) for key in cls._EXTRA),
        )


class LocalDecomposition(TmtDecomposition):
    """tau1 * mu * tau2 * residual with the residual congruent to I."""

    __slots__ = ("residual",)
    _EXTRA = ("residual",)

    def __init__(self, tau1: Word, mu: Matrix, tau2: Word, residual: Matrix) -> None:
        super().__init__(tau1, mu, tau2)
        if residual.ring != mu.ring:
            raise RingMismatch("decomposition parts must share one ring")
        if residual.dim != mu.dim:
            raise IndexOutOfRange("word contexts do not match the core size")
        self.residual = residual

    def recompose(self) -> Matrix:
        out = self.residual.copy()
        for word in (self.tau2, self.core, self.tau1):
            apply_word(out, word, left=True)
        return out


# --- block factorizations ---------------------------------------------------


def factor_unipotent(gamma: Matrix, upper: bool, ctx: FormContext) -> Word:
    """F3 word evaluating to the block diag(1, gamma, (gamma^T)^-1).

    Entries are read off literally: taking columns outermost first
    (right-to-left above the diagonal, left-to-right below) makes all
    cross terms vanish, so each letter carries one matrix entry.
    """
    _require_odd(ctx)
    R = gamma.ring
    n = ctx.n
    if gamma.dim != n:
        raise IndexOutOfRange(f"block must have size {n}, got {gamma.dim}")
    if not _is_unitriangular(gamma, upper):
        raise NotUnipotent(f"block is not {'upper' if upper else 'lower'} unitriangular")
    letters = []
    cols = range(n, 1, -1) if upper else range(1, n)
    for j in cols:
        rows = range(1, j) if upper else range(j + 1, n + 1)
        for i in rows:
            z = gamma.rows[i - 1][j - 1]
            if not R.is_zero(z):
                letters.append(GenLabel("F3", i, j, Scalar(R, z)))
    return Word(ctx, R, letters)


def factor_alt(a: Matrix, upper: bool, ctx: FormContext) -> Word:
    """F4 (upper) or F5 (lower) word for an alternating off-diagonal block.

    Only pairs i < j are emitted; each letter plants z at (i, j) and -z
    at (j, i), covering both triangles at once.
    """
    _require_odd(ctx)
    R = a.ring
    n = ctx.n
    if a.dim != n:
        raise IndexOutOfRange(f"block must have size {n}, got {a.dim}")
    if not is_alternating(a):
        raise NotAlternating("block must be alternating")
    fam = "F4" if upper else "F5"
    letters = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            z = a.rows[i - 1][j - 1]
            if not R.is_zero(z):
                letters.append(GenLabel(fam, i, j, Scalar(R, z)))
    return Word(ctx, R, letters)


def _is_zero_block(m: Matrix) -> bool:
    R = m.ring
    return all(R.is_zero(a) for row in m.rows for a in row)


def factor_to(alpha: Matrix, ctx: FormContext) -> Word:
    """Letter word for a triangular block shape, upper or lower variant.

    Upper: alpha = diag(1, gamma, (gamma^T)^-1) followed by an upper
    alternating block, with gamma upper unitriangular.  Lower: the
    mirrored shape with the alternating block in front.
    """
    _require_odd(ctx)
    R = alpha.ring
    if alpha.dim != ctx.dim:
        raise IndexOutOfRange(f"matrix must have size {ctx.dim}")
    if alpha.rows[0][0] != R.one:
        raise NotTOShape("center entry must be 1")
    for t in range(1, ctx.dim):
        if not (R.is_zero(alpha.rows[0][t]) and R.is_zero(alpha.rows[t][0])):
            raise NotTOShape("center row and column must be trivial")
    uu, uv, vu, _ = split_blocks(alpha, ctx)
    for upper, zero, name in ((True, vu, "gamma^-1 * delta"), (False, uv, "delta * gamma^-1")):
        if not (_is_zero_block(zero) and _is_unitriangular(uu, upper)):
            continue
        # Strip the unipotent factor as letters; the alternating one is left.
        gamma = factor_unipotent(uu, upper, ctx)
        rest = alpha.copy()
        apply_word(rest, gamma.inverse(), left=upper)
        _, ruv, rvu, rvv = split_blocks(rest, ctx)
        if rvv != Matrix.identity(R, ctx.n):
            raise NotTOShape("lower block is not the inverse transpose")
        a = ruv if upper else rvu
        if not is_alternating(a):
            raise NotAlternating(f"{name} must be alternating")
        alt = factor_alt(a, upper, ctx)
        return gamma * alt if upper else alt * gamma
    raise NotTOShape("matrix does not fit either triangular shape")


# --- field decomposition -----------------------------------------------------


def _div(R: Ring, t, s):
    return R.mul(t, R.inv(s))


def tmt_decompose(alpha: Matrix, ctx: FormContext) -> TmtDecomposition:
    """Two tower words and a monomial core recomposing alpha exactly.

    Works over the rational or a prime field.  Each hyperbolic pair is
    peeled in turn: the short column is reduced to one entry by left
    letters, the pivot row cleared by right letters; isotropy of both
    lines kills the paired entry for free, and positions already
    finished can never be repopulated.  The leftover core is monomial
    because its remaining lines are forced by orthogonality.

    The input is not tested for orthogonality up front: every letter
    applied is orthogonal, so alpha preserves the form exactly when the
    core does, and the record's constructor certifies the core as an
    orthogonal monomial.  Only when the elimination or that certificate
    fails is the form test run, to tell a non-orthogonal input
    (NotOrthogonal) from a failure of the elimination itself (re-raised).
    """
    _require_odd(ctx)
    R = alpha.ring
    if R.kind not in ("Q", "Fp"):
        raise UnsupportedRing(f"decomposition needs a field, got {R.descriptor}")
    if ctx.n < 3:
        raise IndexOutOfRange("rank must be at least 3")
    if alpha.dim != ctx.dim:
        raise IndexOutOfRange(f"matrix must have size {ctx.dim}")
    try:
        beta, left_ops, right_ops = _peel_pairs(alpha, ctx)
        tau1 = Word(ctx, R, [op.inverse() for op in left_ops])
        tau2 = Word(ctx, R, [op.inverse() for op in reversed(right_ops)])
        return TmtDecomposition(tau1, beta, tau2)
    except OrthgenError:
        if not is_orthogonal(alpha, ctx):
            raise NotOrthogonal("input does not preserve the form") from None
        raise


def _peel_pairs(alpha: Matrix, ctx: FormContext):
    """tmt_decompose's elimination: (core, left letters, right letters)."""
    R = alpha.ring
    n = ctx.n
    beta = alpha.copy()
    left_ops: list[GenLabel] = []
    right_ops: list[GenLabel] = []

    # Every letter is built from in-range indices, and tmt_decompose
    # validates each one when it builds tau1 and tau2.
    def left(label: GenLabel) -> None:
        left_ops.append(label)
        _apply_letter(ctx, beta, label, left=True)

    def right(label: GenLabel) -> None:
        right_ops.append(label)
        _apply_letter(ctx, beta, label)

    free = set(range(1, n + 1))
    for k in range(1, n + 1):
        uk = ctx.u(k)
        col = [beta.rows[r][uk] for r in range(ctx.dim)]
        lower = [m for m in sorted(free) if not R.is_zero(col[ctx.v(m)])]
        if lower:
            m = lower[0]
            s = col[ctx.v(m)]
            for j in sorted(free):
                t = beta.rows[ctx.v(j)][uk]
                if j != m and not R.is_zero(t):
                    left(GenLabel("F3", m, j, Scalar(R, _div(R, t, s))))
            t = beta.rows[0][uk]
            if not R.is_zero(t):
                left(GenLabel("F1", m, None, Scalar(R, R.neg(_div(R, t, s)))))
            for j in sorted(free):
                t = beta.rows[ctx.u(j)][uk]
                if j != m and not R.is_zero(t):
                    left(GenLabel("F4", j, m, Scalar(R, R.neg(_div(R, t, s)))))
            pivot = ctx.v(m)
        else:
            upper = [m for m in sorted(free) if not R.is_zero(col[ctx.u(m)])]
            if not upper:
                raise DecompositionError(f"column {k} vanished on the free pairs")
            m = upper[0]
            s = col[ctx.u(m)]
            for j in sorted(free):
                t = beta.rows[ctx.u(j)][uk]
                if j != m and not R.is_zero(t):
                    left(GenLabel("F3", j, m, Scalar(R, R.neg(_div(R, t, s)))))
            pivot = ctx.u(m)
        # Column isotropy clears the paired slot and the center.
        if any(
            not R.is_zero(beta.rows[r][uk]) for r in range(ctx.dim) if r != pivot
        ):
            raise DecompositionError(f"column {k} kept a stray entry")

        s = beta.rows[pivot][uk]
        for j in range(1, n + 1):
            t = beta.rows[pivot][ctx.u(j)]
            if j != k and not R.is_zero(t):
                right(GenLabel("F3", k, j, Scalar(R, R.neg(_div(R, t, s)))))
        t = beta.rows[pivot][0]
        if not R.is_zero(t):
            right(GenLabel("F1", k, None, Scalar(R, _div(R, t, R.mul(R.from_int(2), s)))))
        for j in range(1, n + 1):
            t = beta.rows[pivot][ctx.v(j)]
            if j != k and not R.is_zero(t):
                right(GenLabel("F4", k, j, Scalar(R, R.neg(_div(R, t, s)))))
        if any(
            not R.is_zero(beta.rows[pivot][c]) for c in range(ctx.dim) if c != uk
        ):
            raise DecompositionError(f"pivot row for column {k} kept a stray entry")
        free.discard(m)
    return beta, left_ops, right_ops


def mo_split(mu: Matrix, ctx: FormContext) -> Word:
    """Split a monomial orthogonal matrix as a PERM letter times a DIAG letter.

    The letters are read off mu's pattern, its center entry and its
    u-column entries, and checked as any Word's letters are.  mu equals
    sigma * diag exactly when each v-column entry is the inverse of its
    partner u-column entry, the only entries of diag not read off mu
    itself, so that is all that is compared.
    """
    _require_odd(ctx)
    R = mu.ring
    if mu.dim != ctx.dim:
        raise IndexOutOfRange(f"matrix must have size {ctx.dim}")
    pattern = monomial_pattern(mu)
    image = tuple(pattern[s] + 1 for s in range(ctx.dim))

    def entry(s):
        return mu.rows[pattern[s]][s]

    d0 = Scalar(R, entry(0))
    d = tuple(Scalar(R, entry(ctx.u(i))) for i in range(1, ctx.n + 1))
    core = Word(ctx, R, [GenLabel("PERM", param=image), GenLabel("DIAG", param=(d0, d))])
    for i in range(1, ctx.n + 1):
        if R.mul(entry(ctx.u(i)), entry(ctx.v(i))) != R.one:
            raise NotOrthogonal("monomial matrix is not orthogonal")
    return core


# --- lifting along a local ring's reduction ---------------------------------


def _lift_word(word: Word, ring: Ring) -> Word:
    """Canonical preimage over a local ring of a residue-field word.

    F letters lift their parameter, except that F2's half maps to the
    half upstairs; a PERM image is kept; a DIAG lifts entry by entry,
    its center going to +1 or -1.  The words come from a
    TmtDecomposition, which certified them over the residue field, so
    the center is +1 or -1 there and every lifted diagonal entry is a
    unit of the local ring: the lift is valid by construction, unchecked.
    """
    S = word.ring
    half_s = Scalar(S, S.half)
    letters = []
    for letter in word.letters:
        fam = letter.family
        if fam == "PERM":
            letters.append(letter)
        elif fam == "DIAG":
            d0, d = letter.param
            center = ring.one if d0.payload == S.one else ring.neg(ring.one)
            param = (Scalar(ring, center), tuple(Scalar(ring, ring.lift(x.payload)) for x in d))
            letters.append(GenLabel(fam, param=param, exp=letter.exp))
        else:
            if fam == "F2" and letter.param == half_s:
                z = Scalar(ring, ring.half)
            else:
                z = Scalar(ring, ring.lift(letter.param.payload))
            letters.append(GenLabel(fam, letter.i, letter.j, z, letter.exp))
    return _checked_word(word.ctx, ring, letters)


def local_decompose(alpha: Matrix, ctx: FormContext) -> LocalDecomposition:
    """Decompose over a local scalar ring up to a congruence-one residual.

    Reduces mod the maximal ideal, decomposes the residue over the
    field, lifts the words and the core (as PERM and DIAG letters)
    canonically, and returns the quotient of alpha by the lifted
    product as the residual factor.  Every lifted letter is orthogonal,
    so the quotient is built by applying the inverse letters, and it
    preserves the form exactly when alpha does: the residual's form test
    is the input's only one, as in tmt_decompose.  Congruence to the
    identity is read off the residual's reduction.
    """
    R = alpha.ring
    S = residue_ring(R)  # UnsupportedRing for non-local scalar rings
    if alpha.dim != ctx.dim:
        raise IndexOutOfRange(f"matrix must have size {ctx.dim}")
    reduced = tmt_decompose(matrix_residue(alpha), ctx)
    tau1 = _lift_word(reduced.tau1, R)
    core = _lift_word(reduced.core, R)
    tau2 = _lift_word(reduced.tau2, R)
    residual = alpha.copy()
    for word in (tau1, core, tau2):
        apply_word(residual, word.inverse(), left=True)
    if not is_orthogonal(residual, ctx):
        raise NotOrthogonal("input does not preserve the form")
    if matrix_residue(residual) != Matrix.identity(S, ctx.dim):
        raise DecompositionError("residual is not congruent to the identity")
    return LocalDecomposition(tau1, eval_word(core), tau2, residual)


# --- Laurent-ring operations -------------------------------------------------


def _laurent_matrix(m: Matrix) -> Matrix:
    R = m.ring
    if isinstance(R, LaurentRing):
        return m
    if not isinstance(R, PolynomialRing):
        raise UnsupportedRing(f"{R.descriptor} has no Laurent embedding")
    L = LaurentRing(R.base)
    rows = [[L.make(0, a) for a in row] for row in m.rows]
    return Matrix(L, rows, copy=False)


def _entry_bounds_ok(m: Matrix, low: bool) -> bool:
    L = m.ring
    for row in m.rows:
        for a in row:
            b = L.bounds(a)
            if b is None:
                continue
            if low and b[0] < 0:
                return False
            if not low and b[1] > 0:
                return False
    return True


def theta_conjugate(beta: Matrix, direction: int, ctx: FormContext):
    """Conjugate beta by the theta scaling, reporting polynomiality.

    beta is a Matrix over a polynomial or Laurent ring.  The conjugate
    theta^d * beta * theta^-d, d the direction, is taken over the Laurent
    ring by applying THETA letters on both sides.  Returns (conjugate,
    flag) with flag true when no entry has a negative power.
    """
    if direction not in (1, -1):
        raise BadIndex("direction must be +1 or -1")
    if not isinstance(beta, Matrix):
        raise BadIndex("beta must be a Matrix")
    lmat = _laurent_matrix(beta)
    if not is_orthogonal(lmat, ctx):
        raise NotOrthogonal("input does not preserve the form")
    conj = lmat.copy()
    scaling = Word(ctx, lmat.ring, [GenLabel("THETA", exp=direction)])
    apply_word(conj, scaling, left=True)
    apply_word(conj, scaling.inverse())
    return conj, _entry_bounds_ok(conj, low=True)


# --- certificate checking ----------------------------------------------------


def _require_elementary(word: Word) -> None:
    for letter in word.letters:
        if letter.family not in F_FAMILIES:
            raise NonElementaryLetter(f"letter {letter.family} is not elementary")


class HorrocksInstance:
    """A polynomial matrix, a negative-power one, and the witness between.

    alpha lives over R[X], beta over the Laurent ring (checked later to
    use only nonpositive powers), and the witness word satisfies
    eval(witness) * beta = alpha.  An optional claim (alpha0, word)
    asserts alpha = alpha0 * eval(word) with alpha0 constant.
    """

    __slots__ = ("alpha", "beta", "witness", "claim")

    def __init__(self, alpha: Matrix, beta: Matrix, witness: Word, claim=None) -> None:
        if not isinstance(alpha.ring, PolynomialRing):
            raise RingMismatch("alpha must live over a polynomial ring")
        if not isinstance(beta.ring, LaurentRing) or beta.ring.base != alpha.ring.base:
            raise RingMismatch("beta must live over the matching Laurent ring")
        if witness.ring != beta.ring:
            raise RingMismatch("witness must live over the Laurent ring")
        if alpha.dim != beta.dim or witness.ctx.dim != alpha.dim:
            raise IndexOutOfRange("instance parts must share one size")
        _require_elementary(witness)
        if claim is not None:
            alpha0, word = claim
            if alpha0.ring != alpha.ring.base:
                raise RingMismatch("claimed constant must live over the base ring")
            if word.ring != alpha.ring:
                raise RingMismatch("claimed word must live over the polynomial ring")
            if alpha0.dim != alpha.dim or word.ctx.dim != alpha.dim:
                raise IndexOutOfRange("claim parts must share the instance size")
            _require_elementary(word)
            claim = (alpha0, word)
        self.alpha = alpha
        self.beta = beta
        self.witness = witness
        self.claim = claim

    def to_text(self) -> str:
        """Canonical JSON text, keys sorted; claim is null when absent."""
        claim = "null"
        if self.claim is not None:
            claim = f'{{"alpha0":{self.claim[0].to_text()},"word":{self.claim[1].to_text()}}}'
        return (f'{{"alpha":{self.alpha.to_text()},"beta":{self.beta.to_text()},'
                f'"claim":{claim},"witness":{self.witness.to_text()}}}')

    def to_json(self) -> dict:
        return json.loads(self.to_text())

    @classmethod
    def from_json(cls, obj) -> "HorrocksInstance":
        if not isinstance(obj, dict) or not {"alpha", "beta", "witness"} <= set(obj):
            raise JSONFormatError("instance needs 'alpha', 'beta', 'witness'")
        claim = obj.get("claim")
        if claim is not None:
            if not isinstance(claim, dict) or not {"alpha0", "word"} <= set(claim):
                raise JSONFormatError("claim needs 'alpha0' and 'word'")
            claim = (Matrix.from_json(claim["alpha0"]), word_from_json(claim["word"]))
        return cls(
            Matrix.from_json(obj["alpha"]),
            Matrix.from_json(obj["beta"]),
            word_from_json(obj["witness"]),
            claim,
        )


def _constant_matrix_over(m: Matrix, P: PolynomialRing) -> Matrix:
    rows = [[P.make([a]) for a in row] for row in m.rows]
    return Matrix(P, rows, copy=False)


def check_horrocks_instance(inst: HorrocksInstance) -> dict:
    """Verify a splitting certificate and report each check separately.

    The verdict records orthogonality of both matrices, that beta uses
    only nonpositive powers, and that eval(witness) * beta = alpha over
    the Laurent ring, decided by applying the witness letters to beta as
    row operations; for an orthogonal beta that is alpha * beta^-1 =
    eval(witness).  With a claim it additionally checks that the
    constant part is orthogonal and recomposes alpha.  Accepts exactly
    when every recorded check passes.
    """
    ctx = inst.witness.ctx
    witnessed = inst.beta.copy()
    apply_word(witnessed, inst.witness, left=True)
    verdict = {
        "alpha_orthogonal": is_orthogonal(inst.alpha, ctx),
        "beta_orthogonal": is_orthogonal(inst.beta, ctx),
        "beta_negative_powers": _entry_bounds_ok(inst.beta, low=False),
        "quotient_elementary": witnessed == _laurent_matrix(inst.alpha),
    }
    if inst.claim is not None:
        alpha0, word = inst.claim
        verdict["claim_constant"] = is_orthogonal(alpha0, ctx)
        recomposed = _constant_matrix_over(alpha0, inst.alpha.ring)
        apply_word(recomposed, word)
        verdict["claim_recomposes"] = recomposed == inst.alpha
    verdict["accepted"] = all(verdict.values())
    return verdict
