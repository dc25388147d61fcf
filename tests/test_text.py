"""The canonical JSON text, written and read at a constant cost per entry.

Each ring renders a payload with to_text, and matrices, words and the
records join those strings in sorted-key order.  The differential tests
hold every renderer to canonical_json of the dict oracle in
json_oracle.py, over every ring of sampling.RINGS, every letter family,
every record type and every golden payload, and read each rendered text
back to the object it came from.  A matrix row is read by its ring's
row_from_json; the modular rings check each entry inline and must raise
exactly what the per-entry from_json raises on the first bad entry.
The decompose and factor goldens are replayed with the stdlib encoder
disabled, and a d x d matrix renders with exactly d^2 ring renderer
calls: both pins count, and neither reads a clock.
"""

import json
import random
from fractions import Fraction

import pytest

from orthgen.decompose import HorrocksInstance, LocalDecomposition, TmtDecomposition, local_decompose, tmt_decompose
from orthgen.errors import OrthgenError
from orthgen.generators import GenLabel, Word, eval_word, random_word, word_from_json
from orthgen.quadratic_space import FormContext, Matrix
from orthgen.rings import LaurentRing, PolynomialRing, RationalField, Scalar, canonical_json, ring_from_string

import json_oracle as oracle
from sampling import RINGS, random_matrix, random_perm
from test_cli import CASES, GOLDEN, REJECT_CASES, TRUNC_CASES, run_cli
from test_loader_fuzz import LOADER_JUNK

QQ = RationalField()
PQ = PolynomialRing(QQ)
LQ = LaurentRing(QQ)
CTX3 = FormContext(3)


def _edge_payloads(R):
    """Zero, one, minus one and the ring's own edge cases, then seeded samples."""
    out = [R.zero, R.one, R.from_int(-1), R.from_int(-7), R.half]
    if R.kind == "Q":
        out += [Fraction(-123456789, 1000003), Fraction(10**30, 7), Fraction(-5)]
    if R.kind == "poly":
        out += [(), (Fraction(0), Fraction(-3, 2)), (Fraction(1),) * 3]
    if R.kind == "laurent":
        out += [(0, ()), (-3, (Fraction(2, 3),)), (-2, (Fraction(1), Fraction(0), Fraction(-1))), (4, (Fraction(-9, 2),))]
    rng = random.Random(R.descriptor)
    return out + [R.sample(rng) for _ in range(40)]


@pytest.mark.parametrize("descriptor", RINGS)
def test_each_ring_renders_the_oracle_text_and_reads_it_back(descriptor):
    R = ring_from_string(descriptor)
    for a in _edge_payloads(R):
        text = R.to_text(a)
        assert text == canonical_json(oracle.payload_json(R, a)), (descriptor, a)
        assert R.from_json(json.loads(text)) == a
        assert R.to_json(a) == oracle.payload_json(R, a)


def _scalar(R, k):
    return Scalar(R, R.from_int(k))


def _words():
    """A word of every letter family, each ring's F letters, inverses and both contexts."""
    rng = random.Random(3)
    words = []
    for descriptor in RINGS:
        R = ring_from_string(descriptor)
        words.append(random_word(CTX3, R, rng, 10))
        words.append(random_word(CTX3, R, rng, 4).inverse())
    F5 = ring_from_string("Fp:5")
    units = [Scalar(F5, F5.from_int(k)) for k in (2, 3, 4)]
    words.append(Word(CTX3, F5, [
        GenLabel("PERM", param=random_perm(CTX3, rng)),
        GenLabel("DIAG", param=(_scalar(F5, -1), tuple(units))),
        GenLabel("DIAG", param=(_scalar(F5, 1), tuple(reversed(units))), exp=-1),
        GenLabel("F2", 3, None, Scalar(F5, F5.half)),
        GenLabel("F5", 3, 1, _scalar(F5, 4), exp=-1),
    ]))
    even = FormContext(3, odd=False)
    words.append(Word(even, QQ, [GenLabel("OE", 1, 5, _scalar(QQ, -4)),
                                 GenLabel("OE", 2, 1, Scalar(QQ, Fraction(7, 3)), exp=-1)]))
    words.append(Word(CTX3, PQ, [GenLabel("THETA", param=None), GenLabel("THETA", param=2),
                                 GenLabel("F1", 1, None, Scalar(PQ, (Fraction(0), Fraction(1))))]))
    words.append(Word(CTX3, LQ, [GenLabel("THETA", param=None, exp=-1), GenLabel("THETA", param=0)]))
    words.append(Word(CTX3, QQ, ()))
    return words


def test_every_letter_family_renders_the_oracle_text():
    words = _words()
    seen = {l.family for w in words for l in w.letters}
    assert seen == {"F1", "F2", "F3", "F4", "F5", "OE", "PERM", "DIAG", "THETA"}
    assert {l.param for w in words for l in w.letters if l.family == "THETA"} >= {None, 0, 2}
    for word in words:
        text = word.to_text()
        assert text == canonical_json(oracle.word_json(word))
        assert word_from_json(json.loads(text)) == word
    assert '"even":true' in words[-4].to_text()


@pytest.mark.parametrize("descriptor", RINGS)
def test_a_matrix_renders_the_oracle_text_and_reads_it_back(descriptor):
    R = ring_from_string(descriptor)
    rng = random.Random(descriptor)
    for dim in (1, 2, 7):
        m = random_matrix(R, dim, rng)
        text = m.to_text()
        assert text == canonical_json(oracle.matrix_json(m))
        assert Matrix.from_json(json.loads(text)) == m
        assert m.to_json() == oracle.matrix_json(m)


def _horrocks(claim: bool):
    rng = random.Random(11)
    poly = random_word(CTX3, PQ, rng, 3)
    laurent = Word(CTX3, LQ, [GenLabel(l.family, l.i, l.j, Scalar(LQ, LQ.make(0, l.param.payload)))
                              for l in poly.letters])
    return HorrocksInstance(eval_word(poly), Matrix.identity(LQ, 7), laurent,
                            claim=(Matrix.identity(QQ, 7), poly) if claim else None)


def test_the_records_render_the_oracle_text_and_read_it_back():
    rng = random.Random(5)
    for descriptor in ("Q", "Fp:5"):
        R = ring_from_string(descriptor)
        alpha = eval_word(random_word(CTX3, R, rng, 12))
        dec = tmt_decompose(alpha, CTX3)
        assert dec.to_text() == canonical_json(oracle.decomposition_json(dec))
        back = TmtDecomposition.from_json(json.loads(dec.to_text()))
        assert back.to_text() == dec.to_text() and back.recompose() == alpha
    for descriptor in ("Zpk:3:2", "trunc:F5:3"):
        R = ring_from_string(descriptor)
        alpha = eval_word(random_word(CTX3, R, rng, 12))
        dec = local_decompose(alpha, CTX3)
        assert dec.to_text() == canonical_json(oracle.decomposition_json(dec))
        assert list(json.loads(dec.to_text())) == ["mu", "residual", "tau1", "tau2"]
        back = LocalDecomposition.from_json(json.loads(dec.to_text()))
        assert back.to_text() == dec.to_text() and back.recompose() == alpha
    for claim in (False, True):
        inst = _horrocks(claim)
        assert inst.to_text() == canonical_json(oracle.horrocks_json(inst))
        assert inst.to_json() == oracle.horrocks_json(inst)
        assert HorrocksInstance.from_json(inst.to_json()).to_text() == inst.to_text()


# Each golden output that is a record, by the loader that reads it back.
_RECORD_LOADERS = {
    "gen_": Matrix.from_json,
    "decompose_tmt_": TmtDecomposition.from_json,
    "decompose_local_": LocalDecomposition.from_json,
    "decompose_to_": word_from_json,
    "factor_": word_from_json,
}


def test_every_golden_record_rerenders_byte_for_byte():
    rerendered = 0
    for path in sorted(GOLDEN.glob("*.out")):
        loaders = [load for prefix, load in _RECORD_LOADERS.items() if path.name.startswith(prefix)]
        text = path.read_text(encoding="utf-8")
        if not loaders or not text:
            continue
        assert loaders[0](json.loads(text)).to_text() + "\n" == text, path.name
        rerendered += 1
    assert rerendered == 13
    loaders = {"matrix": Matrix.from_json, "certificate": HorrocksInstance.from_json}
    for path in sorted(GOLDEN.glob("*.in")):
        text = path.read_text(encoding="utf-8")
        load = loaders["certificate" if path.name.startswith("horrocks") else "matrix"]
        try:
            loaded = load(json.loads(text))
        except OrthgenError:  # a few golden inputs are malformed on purpose
            continue
        assert loaded.to_text() + "\n" == text, path.name


# --- the row reader ------------------------------------------------------------

_ROW_JUNK = LOADER_JUNK + (
    {"mod": 5, "val": True}, {"mod": 5, "val": 5}, {"mod": 5, "val": -1}, {"mod": 7, "val": 1},
    {"mod": 5, "val": 1.0}, {"mod": 5, "val": 1, "x": 0}, {"mod": 5.0, "val": 1},
    {"mod": 9, "val": 8}, {"mod": 9, "val": 9}, {"mod": True, "val": 1}, {"val": 1, "x": 5},
)


def _outcome(read):
    """What a read returns, or the class and message of what it raises."""
    try:
        return "ok", read()
    except Exception as exc:  # the comparison is the point: any class must match
        return type(exc), str(exc)


@pytest.mark.parametrize("descriptor", ["Fp:5", "Zpk:3:2"])
def test_the_row_reader_raises_what_the_entry_reader_raises(descriptor):
    R = ring_from_string(descriptor)
    good = [R.to_json(R.from_int(k)) for k in (1, 2, 0)]
    for junk in _ROW_JUNK:
        for pos in (0, 2, 3):  # first, middle and last of four
            row = good[:pos] + [junk] + good[pos:]
            per_entry = _outcome(lambda: [R.from_json(x) for x in row])
            assert _outcome(lambda: R.row_from_json(row)) == per_entry, (junk, pos)
            entries = [list(row) for _ in range(4)]
            matrix = {"dim": 4, "entries": entries, "ring": descriptor}
            expected = per_entry if per_entry[0] != "ok" else ("ok", Matrix(R, [per_entry[1]] * 4))
            assert _outcome(lambda: Matrix.from_json(matrix)) == expected, (junk, pos)


# --- cost pins -------------------------------------------------------------------

_TEXT_GOLDENS = {"decompose_tmt_check", "decompose_local_z9", "decompose_local_trunc"}


def test_decompose_output_never_reaches_the_stdlib_encoder(monkeypatch):
    cases = [case for case in CASES + REJECT_CASES + TRUNC_CASES
             if case[0] in _TEXT_GOLDENS or case[0].startswith("factor_")]
    assert len(cases) == 5
    runs = [(argv, (GOLDEN / stdin).read_text(encoding="utf-8"), code,
             (GOLDEN / f"{name}.out").read_text(encoding="utf-8")) for name, argv, stdin, code in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the stdlib JSON encoder was called")

    monkeypatch.setattr(json, "dumps", refuse)
    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    for argv, stdin, code, out in runs:
        assert run_cli(argv, stdin) == (code, out)


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("descriptor", RINGS)
def test_a_matrix_renders_with_one_ring_call_per_entry(descriptor, n, monkeypatch):
    R = ring_from_string(descriptor)
    ctx = FormContext(n)
    m = random_matrix(R, ctx.dim, random.Random(n))
    calls = []
    render = type(R).to_text

    def counted(self, a):
        if self is R:
            calls.append(a)
        return render(self, a)

    monkeypatch.setattr(type(R), "to_text", counted)
    m.to_text()
    assert len(calls) == ctx.dim ** 2
