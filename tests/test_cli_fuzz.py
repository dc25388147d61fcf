"""Junk anywhere in a CLI input ends in exit 0, 1 or 2, never a traceback.

Each golden input payload has one or two of its fields (a value in an
object or an element of a list, at any depth, or the whole payload)
replaced by junk (None, booleans, small and huge integers, strings,
lists, objects and malformed ring descriptors) or by another value
taken from the same payload, which keeps the shape valid and the
content wrong.  The mutated payload is fed in-process to every verb
that reads its kind; gen and identities, which
read flags only, get junk flag values.  Any exception escaping main
fails the test, and exit code 2 must leave stdout empty.  The runs are
derandomized so the example set is the same on every run.
"""

import io
import json
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orthgen.cli import main

GOLDEN = Path(__file__).parent / "golden"

MATRIX_VERBS = (
    [["verify", "--what", what] for what in ("orthogonal", "monomial", "congruent")]
    + [["decompose", "--mode", mode, "--check"] for mode in ("tmt", "local", "to", "alt", "unipotent")]
    + [["factor", "--mode", mode, "--lower", "--check"] for mode in ("to", "alt", "unipotent")]
)
CERTIFICATE_VERBS = [["check-horrocks"]]

BAD_RINGS = (
    "", "R", "Fp:4", "Fp:2", "Fp:-5", "Fp:x", "Fp:99999999999999999999999999",
    "Zpk:3:0", "Zpk:2:3", "Zpk:4:2", "Zpk:3:99999", "trunc:F5:0", "trunc:Q:3",
    "poly:", "poly:Fp:4", "laurent:", "laurent:Zpk:3", "Q:Q",
)

JUNK = (
    None, True, False, -1, 0, 1, 2, 3, 2**64, -(2**64), 10**40,
    "x", "1/0", "0/0", "nan", "1e999", "-", "PERM", "THETA",
    [], [None], [[1]], ["1", "0"], {}, {"coeffs": "x"}, {"mod": 9}, {"offset": 1},
) + BAD_RINGS

SETTINGS = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _paths(obj, prefix=()):
    """Every position in a JSON tree, the root included, as a key path."""
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _value_at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _replace(obj, path, junk):
    if not path:
        return junk
    obj = json.loads(json.dumps(obj))
    _value_at(obj, path[:-1])[path[-1]] = junk
    return obj


PAYLOADS = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in sorted(GOLDEN.glob("*.in"))}


def _mutate(draw, payload):
    """payload with one or two positions replaced by junk or by another of its values."""
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(payload))
        path = draw(st.sampled_from(paths))
        donor = draw(st.sampled_from(paths))
        junk = draw(st.sampled_from(JUNK) | st.just(_value_at(payload, donor)))
        payload = _replace(payload, path, junk)
    return payload


@st.composite
def _requests(draw):
    """(argv, payload): a verb that reads the payload's kind, and the payload
    mutated by _mutate."""
    name = draw(st.sampled_from(sorted(PAYLOADS)))
    argv = draw(st.sampled_from(CERTIFICATE_VERBS if name.startswith("horrocks") else MATRIX_VERBS))
    return argv, json.dumps(_mutate(draw, PAYLOADS[name]))


def _run(argv, stdin_text=""):
    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, io.StringIO()
    try:
        code = main(list(argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def _assert_clean(code, out):
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""


@SETTINGS
@given(request=_requests())
def test_junk_payload_fields_never_escape(request):
    _assert_clean(*_run(*request))


SMALL_INTS = ("-1", "0", "1", "2", "3", "4", "x", "", "99999999999999999999")
TEXT = st.sampled_from(JUNK).map(json.dumps) | st.text(max_size=6)


@SETTINGS
@given(
    fam=st.sampled_from(("F1", "F2", "F3", "F4", "F5", "OE", "F6")),
    i=st.sampled_from(SMALL_INTS),
    j=st.none() | st.sampled_from(SMALL_INTS),
    n=st.sampled_from(("-1", "0", "1", "2", "3", "x")),
    z=TEXT,
    ring=st.sampled_from(BAD_RINGS + ("Q", "Fp:5", "Zpk:3:2", "trunc:F5:3", "poly:Q", "laurent:Q")),
)
def test_junk_gen_flags_never_escape(fam, i, j, n, z, ring):
    argv = ["gen", "--fam", fam, "--i", i, "--n", n, "--z", z, "--ring", ring]
    if j is not None:
        argv += ["--j", j]
    _assert_clean(*_run(argv))


@SETTINGS
@given(
    items=st.sampled_from(("D2.7.comm", "T4.2,,L5.1", "", ",", "X9.9", "T4.2,x")) | st.text(max_size=6),
    seed=st.sampled_from(("0", "-1", str(2**70), "x", "")),
    samples=st.sampled_from(("-1", "0", "1", "x")),
)
def test_junk_identities_flags_never_escape(items, seed, samples):
    _assert_clean(*_run(["identities", "--items", items, "--seed", seed, "--samples", samples]))
