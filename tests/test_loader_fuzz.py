"""Each JSON loader, on its own, is the boundary for malformed input.

Every letter is checked when its Word is built, so word_from_json and
the loaders built on it must refuse a bad letter with an OrthgenError,
and whatever they accept must evaluate.  The payloads are the golden
inputs (the certificates' witness and claim words, the matrices and the
certificates themselves) and the golden decomposition records and their
words, each mutated by the CLI fuzz test's junk pool.  Only an OrthgenError may
escape a loader; a loaded Word must evaluate with eval_word, and a
loaded record's recompose() may raise nothing but an OrthgenError.  A
load is evaluated only at the golden payload's own rank, since the junk
pool holds 10**40 and the identity of that size must never be built.
The loaders' pool adds digit strings longer than Python will turn into
an int, which the rational loader must refuse with JSONFormatError.
The runs are derandomized, with the CLI fuzz test's settings.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orthgen.decompose import HorrocksInstance, LocalDecomposition, TmtDecomposition
from orthgen.errors import BadIndex, JSONFormatError, OrthgenError
from orthgen.generators import eval_word, word_from_json
from orthgen.quadratic_space import Matrix
from orthgen.rings import RationalField

from test_cli_fuzz import GOLDEN, JUNK, PAYLOADS, SETTINGS, _mutate

# Past sys.get_int_max_str_digits() (4300 by default) int() refuses a
# digit string with ValueError.
OVERSIZED = ("1" * 5000, "-" + "9" * 5000, "1/" + "3" * 5000, "7" * 5000 + "/2")
LOADER_JUNK = JUNK + OVERSIZED


def _golden(name):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


CERTIFICATES = [p for name, p in PAYLOADS.items() if name.startswith("horrocks")]
TMT = [_golden("decompose_tmt_check.out"), _golden("decompose_tmt_monomial.out")]
LOCAL = [_golden("decompose_local_z9.out")]


def _word_rank(word, golden):
    return word.ctx.n == golden["n"]


def _record_rank(record, golden):
    return record.mu.dim == golden["mu"]["dim"]


def _recompose(record):
    try:
        record.recompose()
    except OrthgenError:
        pass


# kind -> (loader, golden payloads, same-rank test, evaluation)
LOADERS = {
    "word": (word_from_json,
             [p["witness"] for p in CERTIFICATES]
             + [p["claim"]["word"] for p in CERTIFICATES if p.get("claim")]
             + [r[key] for r in TMT + LOCAL for key in ("tau1", "tau2")]
             + [_golden("decompose_to_closed.out")],
             _word_rank, eval_word),
    "matrix": (Matrix.from_json,
               [p for name, p in PAYLOADS.items() if not name.startswith("horrocks")],
               None, None),
    "certificate": (HorrocksInstance.from_json, CERTIFICATES, None, None),
    "tmt": (TmtDecomposition.from_json, TMT, _record_rank, _recompose),
    "local": (LocalDecomposition.from_json, LOCAL, _record_rank, _recompose),
}


@st.composite
def _payloads(draw, kind):
    golden = draw(st.sampled_from(LOADERS[kind][1]))
    return golden, _mutate(draw, golden, LOADER_JUNK)


@pytest.mark.parametrize("kind", sorted(LOADERS))
@SETTINGS
@given(data=st.data())
def test_junk_never_escapes_a_loader(kind, data):
    load, _, same_rank, evaluate = LOADERS[kind]
    golden, payload = data.draw(_payloads(kind))
    try:
        loaded = load(payload)
    except OrthgenError:
        return
    if evaluate is not None and same_rank(loaded, golden):
        evaluate(loaded)


def test_each_loader_accepts_golden_payloads():
    for kind, (load, payloads, same_rank, evaluate) in LOADERS.items():
        loaded = 0
        for payload in payloads:
            try:
                record = load(payload)
            except OrthgenError:
                continue  # a few golden inputs are malformed on purpose
            loaded += 1
            if evaluate is not None:
                assert same_rank(record, payload)
                evaluate(record)
        assert loaded, kind


@pytest.mark.parametrize("letter", [
    {"fam": "DIAG", "d0": "1", "d": ["1", "1"]},
    {"fam": "THETA", "m": 99},
    {"fam": "OE", "i": 1, "j": 4, "z": "1"},
], ids=["short diag", "theta slot count", "degenerate oe"])
def test_letters_that_failed_at_evaluation_now_fail_at_load(letter):
    even = letter["fam"] == "OE"
    ring = "laurent:Q" if letter["fam"] == "THETA" else "Q"
    with pytest.raises(BadIndex):
        word_from_json({"n": 3, "ring": ring, "even": even, "letters": [letter]})


@pytest.mark.parametrize("text", OVERSIZED, ids=["numerator", "negative", "denominator", "fraction"])
def test_an_oversized_rational_is_a_format_error(text):
    with pytest.raises(JSONFormatError):
        RationalField().from_json(text)
    with pytest.raises(JSONFormatError):
        Matrix.from_json({"ring": "Q", "dim": 1, "entries": [[text]]})


def test_a_huge_rank_is_refused_without_building_its_permutation():
    with pytest.raises(BadIndex):
        word_from_json({"n": 10**40, "ring": "Q", "letters": [{"fam": "PERM", "perm": [1, 2, 3]}]})
