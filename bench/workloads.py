"""Seeded request pools for the orthgen benchmark and the checks on each answer.

A request is one CLI invocation: argv plus the JSON text it reads on
stdin.  Every pool is generated from the workload seed before timing
starts, through the library's public API only, and the timed loop cycles
through it in order.  Answers are checked after the timed call:
factorizations are parsed back and recomposed against the input,
certificates must get exactly the verdict they were built to get, and
suite reports must show the requested samples and no failures.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
from dataclasses import dataclass

F_FAMILIES = ("F1", "F2", "F3", "F4", "F5")

# Pinned here rather than read from orthgen.ITEM_IDS, so that a later
# item added to the library does not silently change the suite workload.
SUITE_ITEMS = (
    "C4.13", "D2.7.comm", "L2.3.i", "L2.3.ii", "L2.3.iii", "L2.3.iv",
    "L2.3.v", "L4.16", "L4.6", "L5.1", "L5.4", "L5.6", "R5.2",
    "S3.2.embed", "T4.1", "T4.2", "T4.8",
)

# One suite cycle: every item once, plus T4.8 four times more and C4.13
# and L2.3.i once more.  Ranked by cost, T4.8 then covers the 39-61% band
# around the median and L2.3.i the 87-96% band around p90, so each
# percentile falls inside one request kind, not on the edge between two
# items of different cost.
SUITE_CYCLE = (
    "C4.13", "T4.8", "D2.7.comm", "L2.3.i", "L2.3.ii", "T4.8", "L2.3.iii",
    "L2.3.iv", "L2.3.v", "T4.8", "L4.16", "C4.13", "L4.6", "L2.3.i", "T4.8",
    "L5.1", "L5.4", "L5.6", "R5.2", "T4.8", "S3.2.embed", "T4.1", "T4.2",
)

# Letters of beta in a certificate; the rest of the witness comes from alpha.
BETA_LETTERS = 4

_RATIONAL = re.compile(r"-?(\d+)(?:/(\d+))?$")


@dataclass(frozen=True)
class Workload:
    """One request mix; sizes maps a request kind to (rank n, letters)."""

    name: str
    why: str
    pool: int
    trace_batch: int
    sizes: dict
    samples: int = 20


WORKLOADS = {
    "factor_fp": Workload(
        "factor_fp",
        "small-int scalars, so dense letter products dominate; the sparse letter kernel must show here",
        pool=256,
        trace_batch=16,
        sizes={"tmt": (12, 48), "local": (8, 32)},
    ),
    "exact_q": Workload(
        "exact_q",
        "Fraction and polynomial arithmetic with nested JSON; verifies certificates beside factoring",
        pool=256,
        trace_batch=16,
        sizes={"tmt": (6, 24), "horrocks": (4, 16)},
    ),
    "suite": Workload(
        "suite",
        "many tiny matrices over eight rings; the only transvection path, per-call overhead dominates",
        pool=32 * len(SUITE_CYCLE),
        trace_batch=len(SUITE_CYCLE),
        sizes={},
    ),
}


@dataclass
class Request:
    kind: str
    argv: list
    stdin: str
    expect: object


@dataclass
class Checked:
    ok: bool
    letters: int | None = None
    bits: int = 0


def load_library():
    """Import orthgen afresh, dropping any earlier import, and return the package."""
    for name in [m for m in sys.modules if m == "orthgen" or m.startswith("orthgen.")]:
        del sys.modules[name]
    import orthgen
    import orthgen.cli  # noqa: F401  (binds orthgen.cli)

    return orthgen


# --- generation ---------------------------------------------------------------


def _f_letter(rng, n: int, z) -> dict:
    fam = F_FAMILIES[rng.randrange(len(F_FAMILIES))]
    letter = {"fam": fam, "i": rng.randrange(1, n + 1), "exp": 1, "z": z}
    if fam not in ("F1", "F2"):
        j = rng.randrange(1, n)
        letter["j"] = j + (j >= letter["i"])
    return letter


def _rational(rng, lo: int = -9, hi: int = 9) -> str:
    return f"{rng.randrange(lo, hi + 1)}/{rng.randrange(1, 10)}"


def _unit_json(rng, ring: str):
    if ring == "Q":
        num = rng.randrange(1, 10) * rng.choice((1, -1))
        return f"{num}/{rng.randrange(1, 10)}"
    p = int(ring.split(":")[1])
    return {"mod": p, "val": rng.randrange(1, p)}


def _scalar_json(rng, ring: str):
    if ring == "Q":
        return _rational(rng)
    modulus = 5 if ring == "Fp:5" else 9
    return {"mod": modulus, "val": rng.randrange(modulus)}


def _word_matrix(og, rng, ring: str, n: int, letters: int, right=None):
    """A random F-word times right (default the identity).

    Multiplied from the right end, letter matrix on the left, so each
    product has a nearly-identity left factor and stays cheap.
    """
    ctx = og.FormContext(n)
    R = og.ring_from_string(ring)
    specs = [_f_letter(rng, n, _scalar_json(rng, ring)) for _ in range(letters)]
    acc = og.Matrix.identity(R, ctx.dim) if right is None else right
    for s in reversed(specs):
        z = og.Scalar(R, R.from_json(s["z"]))
        acc = og.gen_F(ctx, s["fam"], s["i"], s.get("j"), z) @ acc
    return acc


def _monomial(og, rng, ring: str, n: int):
    """A random delta-commuting permutation times a random orthogonal diagonal."""
    ctx = og.FormContext(n)
    R = og.ring_from_string(ring)
    pairs = list(range(1, n + 1))
    rng.shuffle(pairs)
    image = [1] * (2 * n + 1)
    for i, t in enumerate(pairs, start=1):
        u, v = 1 + t, 1 + n + t
        if rng.randrange(2):
            u, v = v, u
        image[i], image[n + i] = u, v
    d0 = og.Scalar(R, R.from_int(rng.choice((1, -1))))
    d = [og.Scalar(R, R.from_json(_unit_json(rng, ring))) for _ in range(n)]
    return og.perm_matrix(ctx, R, image) @ og.diag_orthogonal(ctx, d0, d)


def _decompose(og, mode: str, m) -> Request:
    text = og.canonical_json(m.to_json())
    return Request(mode, ["decompose", "--mode", mode, "--check"], text, m)


def _certificate(og, rng, n: int, letters: int, perturb: bool) -> Request:
    """alpha over Q[X], beta of nonpositive-power letters, witness alpha * beta^-1."""
    ctx = og.FormContext(n)
    PQ = og.ring_from_string("poly:Q")
    LQ = og.ring_from_string("laurent:Q")

    def letter(ring, payload):
        spec = _f_letter(rng, n, None)
        return og.GenLabel(spec["fam"], spec["i"], spec.get("j"), og.Scalar(ring, payload))

    poly = [
        letter(PQ, PQ.from_json({"coeffs": [_rational(rng, -4, 4) for _ in range(rng.randrange(1, 3))]}))
        for _ in range(letters - BETA_LETTERS)
    ]
    neg = [
        letter(LQ, LQ.from_json({"coeffs": [_unit_json(rng, "Q")], "offset": -rng.randrange(3)}))
        for _ in range(BETA_LETTERS)
    ]
    alpha = og.eval_word(og.Word(ctx, PQ, poly))
    beta = og.eval_word(og.Word(ctx, LQ, neg))
    witness = [
        og.GenLabel(l.family, l.i, l.j, og.rings.laurent_of_poly(l.param)) for l in poly
    ] + [l.inverse() for l in reversed(neg)]
    if perturb:
        pos = rng.randrange(len(witness))
        old = witness[pos]
        bumped = old.param + og.Scalar(LQ, LQ.one)
        witness[pos] = og.GenLabel(old.family, old.i, old.j, bumped, old.exp)
    inst = og.HorrocksInstance(alpha, beta, og.Word(ctx, LQ, witness))
    verdict = {
        "alpha_orthogonal": True,
        "beta_orthogonal": True,
        "beta_negative_powers": True,
        "quotient_elementary": not perturb,
        "accepted": not perturb,
    }
    return Request("horrocks", ["check-horrocks"], og.canonical_json(inst.to_json()), verdict)


def _factor_fp(og, wl, rng, idx):
    if idx % 4 == 3:
        n, letters = wl.sizes["local"]
        return _decompose(og, "local", _word_matrix(og, rng, "Zpk:3:2", n, letters))
    n, letters = wl.sizes["tmt"]
    m = _word_matrix(og, rng, "Fp:5", n, letters, _monomial(og, rng, "Fp:5", n))
    return _decompose(og, "tmt", m)


def _exact_q(og, wl, rng, idx):
    if idx % 4 == 3:
        n, letters = wl.sizes["horrocks"]
        return _certificate(og, rng, n, letters, perturb=(idx // 4) % 2 == 1)
    n, letters = wl.sizes["tmt"]
    m = _word_matrix(og, rng, "Q", n, letters, _monomial(og, rng, "Q", n))
    return _decompose(og, "tmt", m)


def _suite(og, wl, rng, idx):
    item = SUITE_CYCLE[idx % len(SUITE_CYCLE)]
    seed = rng.randrange(2**31)
    argv = ["identities", "--items", item, "--seed", str(seed), "--samples", str(wl.samples)]
    expect = {"items": [{"failures": [], "id": item, "samples": wl.samples}], "seed": seed}
    return Request("identities", argv, "", expect)


_BUILDERS = {"factor_fp": _factor_fp, "exact_q": _exact_q, "suite": _suite}


def build_pool(og, wl: Workload, rng) -> list:
    build = _BUILDERS[wl.name]
    return [build(og, wl, rng, idx) for idx in range(wl.pool)]


def pool_digest(pool) -> str:
    h = hashlib.sha256()
    for req in pool:
        h.update(json.dumps([req.argv, req.stdin]).encode())
    return h.hexdigest()


# --- one request ----------------------------------------------------------------


def call(cli, req: Request):
    """Run one CLI request in-process with swapped standard streams."""
    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(req.stdin), out, io.StringIO()
    try:
        code = cli.main(list(req.argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue()


def _max_bits(obj) -> int:
    """Largest numerator or denominator bit length among rational strings in obj."""
    if isinstance(obj, str):
        m = _RATIONAL.match(obj)
        if m is None:
            return 0
        return max(int(g).bit_length() for g in m.groups() if g is not None)
    if isinstance(obj, list):
        return max((_max_bits(x) for x in obj), default=0)
    if isinstance(obj, dict):
        return max((_max_bits(x) for x in obj.values()), default=0)
    return 0


def check(og, req: Request, code, out: str) -> Checked:
    """Judge one answer independently of the CLI's own --check."""
    if req.kind == "horrocks":
        expected_code = 0 if req.expect["accepted"] else 1
        if code != expected_code:
            return Checked(False)
        return Checked(json.loads(out) == req.expect)
    if code != 0:
        return Checked(False)
    obj = json.loads(out)
    if req.kind == "identities":
        return Checked(obj == req.expect)
    if req.kind == "tmt":
        dec = og.TmtDecomposition.from_json(obj)
        og.monomial_pattern(dec.mu)
    else:
        dec = og.LocalDecomposition.from_json(obj)
        ideal = og.IdealDescriptor("max")
        identity = og.Matrix.identity(dec.residual.ring, dec.residual.dim)
        if not og.matrices_congruent(dec.residual, identity, ideal):
            return Checked(False)
    ok = dec.recompose() == req.expect
    return Checked(ok, len(dec.tau1) + len(dec.tau2), _max_bits(obj))


def safe_check(og, req: Request, code, out: str) -> Checked:
    """check(), with any exception from a malformed answer counted as a failure."""
    try:
        return check(og, req, code, out)
    except Exception:  # a wrong answer may break parsing anywhere
        return Checked(False)
