"""Dense letter matrices, the oracle the sparse letter kernel is checked against."""

from orthgen.generators import (
    F_FAMILIES,
    _validate_letter,
    diag_orthogonal,
    gen_F,
    gen_oe,
    perm_matrix,
    theta,
)


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
