"""Named generators of the odd orthogonal group and words over them.

The five F families are stored as one term table mapping each family to
its elementary-matrix terms, and the identity suite's mutation self-test
perturbs the table to prove the test battery would notice a wrong sign.
Letters act on matrices through one kernel, entered by apply_word, as
row and column operations read from that table; no letter is multiplied
in as a dense matrix.  The builders gen_F, gen_oe, perm_matrix,
diag_orthogonal and theta are one-letter words evaluated by the same
kernel.  Words are sequences of GenLabels, each checked once by
_validate_letter when its Word is built (or loaded from JSON), so the
kernel checks nothing; evaluation is left-to-right, and letter inverses
are closed-form (F(z)^-1 = F(-z)), never numeric inversion.

Conventions fixed here and relied on everywhere else:
  * commutator(a, b) = a*b*a^-1*b^-1
  * theta(m) = diag(X,...,X, 1,...,1) with X in the first m slots
  * permutations are 1-based image tuples, sigma*e_s = e_pi(s)
"""

from __future__ import annotations

from .errors import (
    BadIndex,
    BadSign,
    IndexOutOfRange,
    JSONFormatError,
    NotDeltaCommuting,
    OddLength,
    RingMismatch,
    UnsupportedRing,
)
from .quadratic_space import FormContext, Matrix
from .rings import (
    LaurentRing,
    PolynomialRing,
    Ring,
    Scalar,
    ring_from_string,
    scalar_from_json,
    variable,
)

__all__ = [
    "F_FAMILIES",
    "GenLabel",
    "Word",
    "gen_F",
    "gen_oe",
    "perm_matrix",
    "diag_orthogonal",
    "theta",
    "commutator",
    "apply_word",
    "eval_word",
    "word_shuffle",
    "word_to_json",
    "word_from_json",
    "random_word",
]

F_FAMILIES = ("F1", "F2", "F3", "F4", "F5")

# Each term is (row slot, column slot, integer coefficient, power of z);
# slots name the center or a hyperbolic coordinate of index i or j.
# The table is the single source of truth for the F formulas.
_F_TERMS = {
    "F1": (("c", "vi", 1, 1), ("ui", "c", -2, 1), ("ui", "vi", -1, 2)),
    "F2": (("c", "ui", 1, 1), ("vi", "c", -2, 1), ("vi", "ui", -1, 2)),
    "F3": (("ui", "uj", 1, 1), ("vj", "vi", -1, 1)),
    "F4": (("ui", "vj", 1, 1), ("uj", "vi", -1, 1)),
    "F5": (("vi", "uj", 1, 1), ("vj", "ui", -1, 1)),
}


def _slot(n: int, name: str, i: int, j) -> int:
    """The slot of a term-table name in the odd context: u_i = i, v_i = n + i."""
    if name == "c":
        return 0
    idx = i if name[1] == "i" else j
    return idx if name[0] == "u" else n + idx


def _check_f_indices(ctx: FormContext, family: str, i: int, j) -> None:
    if family not in F_FAMILIES:
        raise BadIndex(f"unknown F family {family!r}")
    if not ctx.odd:
        raise BadIndex("F generators live in the odd context")
    if not 1 <= i <= ctx.n:
        raise BadIndex(f"index i={i} outside 1..{ctx.n}")
    if family in ("F1", "F2"):
        if j is not None:
            raise BadIndex(f"{family} takes no second index")
    else:
        if j is None:
            raise BadIndex(f"{family} needs a second index")
        if not 1 <= j <= ctx.n:
            raise BadIndex(f"index j={j} outside 1..{ctx.n}")
        if i == j:
            raise BadIndex(f"{family} needs i != j, got i = j = {i}")


def _f_terms(ctx: FormContext, R: Ring, family: str, i: int, j, z) -> list:
    """(row, column, coefficient payload) of each entry F^family(z) adds to I.

    Reads _F_TERMS at call time, so a rebound table reaches every caller.
    """
    zpow = {1: z, 2: R.mul(z, z)}
    return [
        (_slot(ctx.n, row, i, j), _slot(ctx.n, col, i, j), R.mul(R.from_int(coeff), zpow[power]))
        for row, col, coeff, power in _F_TERMS[family]
    ]


def gen_F(ctx: FormContext, family: str, i: int, j, z: Scalar) -> Matrix:
    """The generator F^family with parameter z, from the term table."""
    if family not in F_FAMILIES:
        raise BadIndex(f"unknown F family {family!r}")
    return eval_word(Word(ctx, z.ring, [GenLabel(family, i, j, z)]))


def _check_oe_indices(ctx: FormContext, i: int, j: int) -> None:
    if ctx.odd:
        raise BadIndex("oe generators live in the even context")
    dim = ctx.dim
    if not (1 <= i <= dim and 1 <= j <= dim):
        raise BadIndex(f"oe indices ({i},{j}) outside 1..{dim}")
    if i == j:
        raise BadIndex("oe needs i != j")
    if j == ctx.delta(i - 1) + 1:
        raise BadIndex(f"oe_{{{i},{j}}} is degenerate: j is the delta-partner of i")


def _oe_terms(ctx: FormContext, R: Ring, i: int, j: int, z) -> tuple:
    """(row, column, coefficient payload) of the two entries oe_ij(z) adds to I."""
    di, dj = ctx.delta(i - 1) + 1, ctx.delta(j - 1) + 1
    return ((i - 1, j - 1, z), (dj - 1, di - 1, R.neg(z)))


def gen_oe(ctx: FormContext, i: int, j: int, z: Scalar) -> Matrix:
    """The even-context generator oe_ij(z) = I + e_ij(z) - e_delta(j),delta(i)(z)."""
    return eval_word(Word(ctx, z.ring, [GenLabel("OE", i, j, z)]))


def _check_perm(ctx: FormContext, pi) -> tuple:
    pi = tuple(int(s) for s in pi)
    dim = ctx.dim
    if len(pi) != dim or sorted(pi) != list(range(1, dim + 1)):
        raise BadIndex(f"not a permutation of 1..{dim}: {pi!r}")
    for s in range(1, dim + 1):
        # pi(delta(s)) must equal delta(pi(s)), 1-based on both sides
        if pi[ctx.delta(s - 1)] != ctx.delta(pi[s - 1] - 1) + 1:
            raise NotDeltaCommuting(f"permutation {pi!r} does not commute with delta")
    return pi


def perm_matrix(ctx: FormContext, ring: Ring, pi) -> Matrix:
    """The permutation matrix sigma with sigma*e_s = e_pi(s), pi an image tuple."""
    return eval_word(Word(ctx, ring, [GenLabel("PERM", param=tuple(pi))]))


def _diag_entries(ctx: FormContext, d0: Scalar, d) -> list:
    """The diagonal payloads of diag_orthogonal(ctx, d0, d), after its checks."""
    if not ctx.odd:
        raise BadIndex("diagonal generators live in the odd context")
    d = tuple(d)
    if len(d) != ctx.n:
        raise BadIndex(f"need {ctx.n} diagonal scalars, got {len(d)}")
    R = d0.ring
    for x in d:
        if x.ring != R:
            raise RingMismatch(f"{x.ring.descriptor} vs {R.descriptor}")
    if (d0 * d0) != 1:
        raise BadSign(f"center entry must square to 1, got {d0!r}")
    return [d0.payload] + [x.payload for x in d] + [x.inv().payload for x in d]


def diag_orthogonal(ctx: FormContext, d0: Scalar, d) -> Matrix:
    """diag(d0, d1..dn, d1^-1..dn^-1); needs d0^2 = 1 and every d_i a unit."""
    return eval_word(Word(ctx, d0.ring, [GenLabel("DIAG", param=(d0, tuple(d)))]))


def _theta_slots(ctx: FormContext, ring: Ring, m) -> int:
    """The number of X slots of theta(ctx, ring, m), after its checks."""
    if not isinstance(ring, (PolynomialRing, LaurentRing)):
        raise UnsupportedRing(f"theta needs a polynomial or laurent ring, got {ring.descriptor}")
    if m is None:
        m = ctx.n + 1
    if not 0 <= m <= ctx.dim:
        raise BadIndex(f"theta slot count {m} outside 0..{ctx.dim}")
    return m


def theta(ctx: FormContext, ring: Ring, m=None) -> Matrix:
    """diag(X,...,X, 1,...,1) with X in the first m slots (default n+1)."""
    return eval_word(Word(ctx, ring, [GenLabel("THETA", param=m)]))


_LETTER_FAMILIES = F_FAMILIES + ("OE", "PERM", "DIAG", "THETA")


class GenLabel:
    """One symbolic letter: an F/oe generator, permutation, diagonal, or theta.

    param holds the letter's data: a Scalar for F/OE, an image tuple for
    PERM, a (d0, (d1..dn)) pair for DIAG, a slot count for THETA.
    """

    __slots__ = ("family", "i", "j", "param", "exp")

    def __init__(self, family: str, i=None, j=None, param=None, exp: int = 1) -> None:
        if family not in _LETTER_FAMILIES:
            raise BadIndex(f"unknown letter family {family!r}")
        if exp not in (1, -1):
            raise BadIndex(f"letter exponent must be +1 or -1, got {exp!r}")
        self.family = family
        self.i = i
        self.j = j
        self.param = param
        self.exp = exp

    def inverse(self) -> "GenLabel":
        return GenLabel(self.family, self.i, self.j, self.param, -self.exp)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GenLabel)
            and other.family == self.family
            and other.i == self.i
            and other.j == self.j
            and other.param == self.param
            and other.exp == self.exp
        )

    def __hash__(self) -> int:
        return hash((self.family, self.i, self.j, repr(self.param), self.exp))

    def __repr__(self) -> str:
        bits = [self.family]
        if self.i is not None:
            bits.append(f"i={self.i}")
        if self.j is not None:
            bits.append(f"j={self.j}")
        bits.append(f"param={self.param!r}")
        if self.exp != 1:
            bits.append("exp=-1")
        return f"GenLabel({', '.join(bits)})"


def _validate_letter(ctx: FormContext, ring: Ring, letter: GenLabel) -> None:
    """Every rule a letter must meet in ctx over ring; Word.__init__ is the only caller."""
    fam = letter.family
    if fam in F_FAMILIES or fam == "OE":
        if fam == "OE":
            _check_oe_indices(ctx, letter.i, letter.j)
        else:
            _check_f_indices(ctx, fam, letter.i, letter.j)
        if not isinstance(letter.param, Scalar) or letter.param.ring != ring:
            raise RingMismatch(f"{fam} parameter must be a {ring.descriptor} scalar")
    elif fam == "PERM":
        _check_perm(ctx, letter.param)
    elif fam == "DIAG":
        d0, d = letter.param
        if d0.ring != ring:
            raise RingMismatch("DIAG entries must live in the word's ring")
        _diag_entries(ctx, d0, d)
    else:
        _theta_slots(ctx, ring, letter.param)
        if letter.exp == -1 and not isinstance(ring, LaurentRing):
            raise UnsupportedRing("inverse THETA letters need a laurent ring")


def _apply_letter(ctx: FormContext, m: Matrix, letter: GenLabel, left: bool = False) -> None:
    """Multiply m in place by one letter: m <- L*m if left, else m <- m*L.

    A letter is the identity plus a few entries, a permutation or a
    diagonal, so it acts by row or column operations at O(dim) ring
    operations per line touched; exp = -1 applies the closed-form inverse.
    Nothing is checked: the letter met _validate_letter when its Word was
    built, and m must have ctx's size and the letter's ring.
    """
    R = m.ring
    fam, e = letter.family, letter.exp
    if fam in F_FAMILIES or fam == "OE":
        z = letter.param.payload if e == 1 else R.neg(letter.param.payload)
        if fam == "OE":
            terms = _oe_terms(ctx, R, letter.i, letter.j, z)
        else:
            terms = _f_terms(ctx, R, fam, letter.i, letter.j, z)
        # Each term (r, c, a) of L = I + sum a*e_rc adds a times row c to
        # row r (left) or a times column r to column c (right), reading
        # the line as it was before L.  In F1 and F2 the center line is
        # both a source and a target.  On the right, table order reads
        # the center column (first term) before writing it (second); on
        # the left the first term writes the center row the second reads,
        # so the left runs the terms in reverse rather than snapshot it.
        if left:
            for r, c, a in reversed(terms):
                m.row_add(r, c, a)
        else:
            for r, c, a in terms:
                m.col_add(c, r, a)
    elif fam == "PERM":
        # sigma*e_s = e_pi(s): L*m moves row s to row pi(s), m*L takes
        # column c from column pi(c); the inverse runs both the other way.
        pi = [int(t) - 1 for t in letter.param]
        if left == (e == 1):
            moved = [None] * ctx.dim
            for s, t in enumerate(pi):
                moved[t] = s
        else:
            moved = pi
        if left:
            m.rows = [m.rows[s] for s in moved]
        else:
            m.rows = [[row[s] for s in moved] for row in m.rows]
    else:
        if fam == "DIAG":
            d0, d = letter.param
            d = [x.payload for x in d]
            inv = [R.inv(x) for x in d]
            scales = [d0.payload] + (d + inv if e == 1 else inv + d)
        else:
            x = variable(R).payload
            if e == -1:
                x = R.inv(x)
            scales = [x] * (ctx.n + 1 if letter.param is None else letter.param)
        for s, x in enumerate(scales):
            if left:
                m.row_scale(s, x)
            else:
                m.col_scale(s, x)


class Word:
    """A finite product of letters over one context and ring."""

    __slots__ = ("ctx", "ring", "letters")

    def __init__(self, ctx: FormContext, ring: Ring, letters=()) -> None:
        letters = tuple(letters)
        for letter in letters:
            _validate_letter(ctx, ring, letter)
        self.ctx = ctx
        self.ring = ring
        self.letters = letters

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and other.ctx.n == self.ctx.n
            and other.ctx.odd == self.ctx.odd
            and other.ring == self.ring
            and other.letters == self.letters
        )

    def __repr__(self) -> str:
        return f"Word(n={self.ctx.n}, {len(self.letters)} letters)"

    def inverse(self) -> "Word":
        return Word(self.ctx, self.ring, tuple(l.inverse() for l in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        if other.ctx.dim != self.ctx.dim or other.ring != self.ring:
            raise RingMismatch("cannot concatenate words over different contexts")
        return Word(self.ctx, self.ring, self.letters + other.letters)


def commutator(a: Word, b: Word) -> Word:
    """The word a*b*a^-1*b^-1; a commutator is a word, so commutators nest."""
    return a * b * a.inverse() * b.inverse()


def apply_word(m: Matrix, word: Word, left: bool = False) -> None:
    """Multiply m in place by the word's product, on the left or the right.

    The letter kernel's entry point: m's size and ring are checked here,
    once per word, and the letters were checked when the word was built.
    """
    ctx = word.ctx
    if m.dim != ctx.dim:
        raise IndexOutOfRange(f"dimension mismatch {m.dim} vs {ctx.dim}")
    if m.ring != word.ring:
        raise RingMismatch(f"{m.ring.descriptor} vs {word.ring.descriptor}")
    for letter in reversed(word.letters) if left else word.letters:
        _apply_letter(ctx, m, letter, left)


def eval_word(word: Word) -> Matrix:
    """Left-to-right product of the letters."""
    out = Matrix.identity(word.ring, word.ctx.dim)
    apply_word(out, word)
    return out


def word_shuffle(word: Word) -> Word:
    """Rewrite a1 b1 a2 b2 ... am bm as prod_i (r_i b_i r_i^-1) * prod_i a_i.

    r_i is the prefix product a1..a_i; both sides evaluate to the same
    matrix, but the rewrite separates the b-part into conjugates.
    """
    if len(word.letters) % 2 != 0:
        raise OddLength(f"need an even letter count, got {len(word.letters)}")
    pairs = [(word.letters[2 * k], word.letters[2 * k + 1]) for k in range(len(word.letters) // 2)]
    out = []
    for k, (_, b) in enumerate(pairs):
        prefix = [a for a, _ in pairs[: k + 1]]
        out.extend(prefix)
        out.append(b)
        out.extend(a.inverse() for a in reversed(prefix))
    out.extend(a for a, _ in pairs)
    return Word(word.ctx, word.ring, out)


def _label_to_json(letter: GenLabel):
    fam = letter.family
    obj = {"fam": fam, "exp": letter.exp}
    if fam in F_FAMILIES or fam == "OE":
        obj["i"] = letter.i
        if letter.j is not None:
            obj["j"] = letter.j
        obj["z"] = letter.param.to_json()
    elif fam == "PERM":
        obj["perm"] = list(letter.param)
    elif fam == "DIAG":
        d0, d = letter.param
        obj["d0"] = d0.to_json()
        obj["d"] = [x.to_json() for x in d]
    else:
        obj["m"] = letter.param
    return obj


def _require_keys(obj: dict, fam: str, *keys: str) -> None:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise JSONFormatError(f"{fam} letter needs {' and '.join(map(repr, missing))}")


def _index_from_json(fam: str, key: str, x, nullable: bool = False):
    if x is None and nullable:
        return None
    if isinstance(x, bool) or not isinstance(x, int):
        raise JSONFormatError(f"{fam} letter field {key!r} must be an integer, got {x!r}")
    return x


def _list_from_json(fam: str, key: str, x) -> list:
    if not isinstance(x, list):
        raise JSONFormatError(f"{fam} letter field {key!r} must be a list, got {x!r}")
    return x


def _label_from_json(ring: Ring, obj) -> GenLabel:
    if not isinstance(obj, dict) or "fam" not in obj:
        raise JSONFormatError(f"letter must be an object with 'fam', got {obj!r}")
    fam = obj["fam"]
    exp = _index_from_json(fam, "exp", obj.get("exp", 1))
    if fam in F_FAMILIES or fam == "OE":
        _require_keys(obj, fam, "i", "z")
        i = _index_from_json(fam, "i", obj["i"])
        j = _index_from_json(fam, "j", obj.get("j"), nullable=fam != "OE")
        return GenLabel(fam, i, j, scalar_from_json(ring, obj["z"]), exp)
    if fam == "PERM":
        _require_keys(obj, fam, "perm")
        entries = _list_from_json(fam, "perm", obj["perm"])
        return GenLabel(fam, param=tuple(_index_from_json(fam, "perm", s) for s in entries), exp=exp)
    if fam == "DIAG":
        _require_keys(obj, fam, "d0", "d")
        d0 = scalar_from_json(ring, obj["d0"])
        d = tuple(scalar_from_json(ring, x) for x in _list_from_json(fam, "d", obj["d"]))
        return GenLabel(fam, param=(d0, d), exp=exp)
    if fam == "THETA":
        _require_keys(obj, fam, "m")
        return GenLabel(fam, param=_index_from_json(fam, "m", obj["m"], nullable=True), exp=exp)
    raise JSONFormatError(f"unknown letter family {fam!r}")


def word_to_json(word: Word):
    obj = {
        "n": word.ctx.n,
        "ring": word.ring.descriptor,
        "letters": [_label_to_json(l) for l in word.letters],
    }
    if not word.ctx.odd:
        obj["even"] = True
    return obj


def word_from_json(obj) -> Word:
    if not isinstance(obj, dict) or "n" not in obj or "ring" not in obj:
        raise JSONFormatError("word JSON needs 'n', 'ring' and 'letters'")
    ring = ring_from_string(obj["ring"])
    ctx = FormContext(obj["n"], odd=not obj.get("even", False))
    letters = obj.get("letters", [])
    if not isinstance(letters, list):
        raise JSONFormatError(f"word 'letters' must be a list, got {letters!r}")
    letters = [_label_from_json(ring, o) for o in letters]
    return Word(ctx, ring, letters)


def _random_f_letter(ctx: FormContext, ring: Ring, rng, families) -> GenLabel:
    fam = families[rng.randrange(len(families))]
    i = rng.randrange(1, ctx.n + 1)
    j = None
    if fam not in ("F1", "F2"):
        j = rng.randrange(1, ctx.n)
        if j >= i:
            j += 1
    z = Scalar(ring, ring.sample(rng))
    return GenLabel(fam, i, j, z)


def random_word(ctx: FormContext, ring: Ring, rng, length: int, families=F_FAMILIES) -> Word:
    """A random word of F letters, the stock sampler for tests and the suite."""
    return Word(ctx, ring, [_random_f_letter(ctx, ring, rng, families) for _ in range(length)])
