"""The JSON objects the package's text renderers must spell, built as dicts.

The package writes its wire format as text: each ring renders a payload
with to_text, and matrices, words and records join those strings.  These
builders produce the same values as plain Python objects, so that
canonical_json(builder(x)) gives the bytes a renderer must write.  They
read the package's data structures and none of its renderers.
"""


def payload_json(R, a):
    """One scalar of ring R: "n" or "n/d" over Q, {"mod", "val"} mod m, else coefficients."""
    if R.kind == "Q":
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
    if R.kind in ("Fp", "Zpk"):
        return {"mod": R.modulus, "val": a}
    if R.kind in ("trunc", "poly"):
        return {"coeffs": [payload_json(R.base, c) for c in a]}
    offset, coeffs = a
    return {"coeffs": [payload_json(R.base, c) for c in coeffs], "offset": offset}


def matrix_json(m):
    R = m.ring
    return {"ring": R.descriptor, "dim": m.dim,
            "entries": [[payload_json(R, a) for a in row] for row in m.rows]}


def letter_json(letter):
    fam = letter.family
    obj = {"fam": fam, "exp": letter.exp}
    if fam == "PERM":
        obj["perm"] = list(letter.param)
    elif fam == "DIAG":
        d0, d = letter.param
        obj["d0"] = payload_json(d0.ring, d0.payload)
        obj["d"] = [payload_json(x.ring, x.payload) for x in d]
    elif fam == "THETA":
        obj["m"] = letter.param
    else:
        obj["i"] = letter.i
        if letter.j is not None:
            obj["j"] = letter.j
        obj["z"] = payload_json(letter.param.ring, letter.param.payload)
    return obj


def word_json(word):
    obj = {"n": word.ctx.n, "ring": word.ring.descriptor,
           "letters": [letter_json(l) for l in word.letters]}
    if not word.ctx.odd:
        obj["even"] = True
    return obj


def decomposition_json(dec):
    """A TmtDecomposition, or a LocalDecomposition with its residual."""
    obj = {"tau1": word_json(dec.tau1), "mu": matrix_json(dec.mu), "tau2": word_json(dec.tau2)}
    if hasattr(dec, "residual"):
        obj["residual"] = matrix_json(dec.residual)
    return obj


def horrocks_json(inst):
    claim = None
    if inst.claim is not None:
        alpha0, word = inst.claim
        claim = {"alpha0": matrix_json(alpha0), "word": word_json(word)}
    return {"alpha": matrix_json(inst.alpha), "beta": matrix_json(inst.beta),
            "witness": word_json(inst.witness), "claim": claim}
