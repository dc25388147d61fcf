import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthgen.errors import JSONFormatError, NotAUnit, RingMismatch, UnsupportedRing
from orthgen.quadratic_space import Matrix, matrices_congruent
from orthgen.rings import (
    IdealDescriptor,
    LaurentRing,
    ModularRing,
    PolynomialRing,
    PrimeField,
    RationalField,
    Scalar,
    TruncatedRing,
    _is_prime,
    canonical_json,
    laurent_of_poly,
    residue_ring,
    ring_from_string,
    scalar_from_json,
    scalar_from_string,
    variable,
)
from sampling import matrix, scalar

DESCRIPTORS = [
    "Q",
    "Fp:7",
    "Zpk:3:2",
    "Zpk:5:2",
    "trunc:Fp:5:3",
    "trunc:Q:2",
    "poly:Q",
    "poly:Fp:5",
    "poly:Zpk:3:2",
    "poly:trunc:Fp:3:2",
    "laurent:Fp:7",
    "laurent:Zpk:5:2",
    "laurent:Q",
]

RINGS = [ring_from_string(s) for s in DESCRIPTORS]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.descriptor)
def test_ring_axioms(ring):
    rng = random.Random(1234)
    for _ in range(300):
        a = ring.sample(rng)
        b = ring.sample(rng)
        c = ring.sample(rng)
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.zero) == a
        assert ring.mul(a, ring.one) == a
        assert ring.is_zero(ring.add(a, ring.neg(a)))
        assert ring.mul(a, ring.zero) == ring.zero


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.descriptor)
def test_unit_inverses(ring):
    rng = random.Random(99)
    for _ in range(100):
        u = ring.sample_unit(rng)
        assert ring.is_unit(u)
        assert ring.mul(u, ring.inv(u)) == ring.one
    assert ring.mul(ring.half, ring.from_int(2)) == ring.one


def test_known_inverses():
    assert ModularRing(3, 2).inv(2) == 5
    assert ModularRing(5, 2).inv(2) == 13
    assert PrimeField(7).inv(3) == 5
    T = ring_from_string("trunc:Fp:5:3")
    assert T.inv((1, 1, 0)) == (1, 4, 1)
    assert T.mul((1, 1, 0), (1, 4, 1)) == T.one


def test_non_units_raise():
    with pytest.raises(NotAUnit):
        PrimeField(7).inv(0)
    with pytest.raises(NotAUnit):
        ModularRing(3, 2).inv(6)
    with pytest.raises(NotAUnit):
        ring_from_string("trunc:Fp:5:3").inv((0, 1, 2))
    # 1 + 3X is invertible in (Z/9)[X] but is rejected: only unit
    # constants count as polynomial units here.
    with pytest.raises(NotAUnit):
        ring_from_string("poly:Zpk:3:2").inv((1, 3))
    with pytest.raises(NotAUnit):
        ring_from_string("laurent:Fp:7").inv((0, (1, 1)))


def test_laurent_monomial_inverse():
    L = ring_from_string("laurent:Fp:7")
    a = (-2, (3,))
    assert L.inv(a) == (2, (5,))
    assert L.mul(a, L.inv(a)) == L.one


def test_descriptor_round_trip():
    for ring in RINGS:
        assert ring_from_string(ring.descriptor) == ring
    assert ring_from_string("F5") == PrimeField(5)
    assert ring_from_string("F5").descriptor == "Fp:5"
    assert ring_from_string("Zpk:5:1") == PrimeField(5)
    assert ring_from_string("trunc:F5:3").descriptor == "trunc:Fp:5:3"
    assert ring_from_string(" Q ") == RationalField()


@pytest.mark.parametrize(
    "bad",
    [
        "F2",
        "Zpk:2:3",
        "F9",
        "Fp:10",
        "poly:poly:Q",
        "laurent:poly:Q",
        "trunc:Zpk:3:2:2",
        "trunc:Q",
        "trunc:Q:0",
        "Zpk:3",
        "R",
        "poly:",
        "F\u00b2",
        # int() reads these as Fp:13, Zpk:3:2, Fp:3, Fp:3, trunc:Q:10, Fp:5, Fp:5
        "Fp:1_3",
        "Zpk:3:0_2",
        "F\u0663",
        "Fp:\u0663",
        "trunc:Q:1_0",
        "Fp:+5",
        "Fp: 5",
    ],
)
def test_bad_descriptors(bad):
    with pytest.raises(UnsupportedRing):
        ring_from_string(bad)


def test_modular_ring_k1_rejected():
    with pytest.raises(UnsupportedRing):
        ModularRing(3, 1)


def test_huge_prime_power_modulus_is_refused_before_it_is_built():
    # 3^(10^9) has 1.6e9 bits; building it would stall, so the refusal
    # must come from the size bound alone.
    with pytest.raises(UnsupportedRing):
        ring_from_string("Zpk:3:1000000000")
    assert ring_from_string("Zpk:3:2048").modulus == 3**2048
    with pytest.raises(UnsupportedRing):
        ring_from_string("Zpk:3:2049")


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.descriptor)
def test_json_round_trip(ring):
    rng = random.Random(7)
    for _ in range(50):
        a = ring.sample(rng)
        obj = ring.to_json(a)
        assert ring.from_json(obj) == a
        canonical_json(obj)  # must be serializable


def test_json_rejects():
    Q = RationalField()
    with pytest.raises(JSONFormatError):
        Q.from_json("1.5")
    with pytest.raises(JSONFormatError):
        Q.from_json(True)
    with pytest.raises(JSONFormatError):
        Q.from_json("1/0")
    F7 = PrimeField(7)
    with pytest.raises(JSONFormatError):
        F7.from_json({"mod": 7, "val": 9})
    with pytest.raises(JSONFormatError):
        F7.from_json({"mod": 5, "val": 1})
    with pytest.raises(JSONFormatError):
        F7.from_json(3)
    T = ring_from_string("trunc:Fp:5:3")
    with pytest.raises(JSONFormatError):
        T.from_json({"coeffs": [{"mod": 5, "val": 1}]})
    L = ring_from_string("laurent:Fp:7")
    with pytest.raises(JSONFormatError):
        L.from_json({"coeffs": []})


def test_json_normalizes_untrimmed_polys():
    P = ring_from_string("poly:Fp:5")
    obj = {"coeffs": [{"mod": 5, "val": 1}, {"mod": 5, "val": 0}]}
    assert P.from_json(obj) == (1,)
    L = ring_from_string("laurent:Fp:5")
    obj = {"offset": -1, "coeffs": [{"mod": 5, "val": 0}, {"mod": 5, "val": 2}]}
    assert L.from_json(obj) == (0, (2,))


def test_scalar_sugar():
    F7 = PrimeField(7)
    x = scalar(F7, 3)
    y = scalar(F7, 5)
    assert x + y == scalar(F7, 1)
    assert x - y == scalar(F7, 5)
    assert -x == scalar(F7, 4)
    assert x * y == scalar(F7, 1)
    assert x * y.inv() == scalar(F7, 2)
    assert x * x == scalar(F7, 2)
    assert y.inv() == scalar(F7, 3)
    assert x + 4 == 0
    assert 2 * x == scalar(F7, 6)
    assert bool(scalar(F7, 0)) is False
    assert len({x, scalar(F7, 3), y}) == 2
    with pytest.raises(RingMismatch):
        x + scalar(PrimeField(5), 1)
    assert (x == "3") is False
    # Division and powers are spelled with inv() and *; there is no / or **.
    with pytest.raises(TypeError):
        x / y
    with pytest.raises(TypeError):
        x ** 2


def test_rational_scalar_accepts_fraction():
    Q = RationalField()
    assert scalar(Q, Fraction(1, 2)) * 2 == 1


def test_variable_and_powers():
    P = ring_from_string("poly:Q")
    X = variable(P)
    assert (X * X).payload == (0, 0, 1)
    L = ring_from_string("laurent:Q")
    XL = variable(L)
    assert XL.inv() * XL == scalar(L, 1)
    assert L.bounds((XL.inv() * XL.inv() + XL).payload) == (-2, 1)
    assert L.bounds(L.zero) is None
    with pytest.raises(UnsupportedRing):
        variable(RationalField())
    with pytest.raises(NotAUnit):
        X.inv()


def test_laurent_of_poly():
    P = ring_from_string("poly:Fp:5")
    f = Scalar(P, (0, 1, 1))  # X + X^2
    g = laurent_of_poly(f)
    assert g.ring.descriptor == "laurent:Fp:5"
    assert g.payload == (1, (1, 1))
    with pytest.raises(UnsupportedRing):
        laurent_of_poly(scalar(PrimeField(5), 1))


def _member(ideal, ring, payload):
    """Ideal membership through matrices_congruent, its one caller, on 1x1 matrices."""
    return matrices_congruent(Matrix(ring, [[payload]]), Matrix.zeros(ring, 1), ideal)


def test_ideal_membership():
    zero = IdealDescriptor("zero")
    mx = IdealDescriptor("max")
    Z9 = ModularRing(3, 2)
    assert _member(zero, Z9, 0)
    assert not _member(zero, Z9, 3)
    for v, inside in [(0, True), (3, True), (6, True), (1, False), (5, False)]:
        assert _member(mx, Z9, v) is inside
    T = ring_from_string("trunc:Fp:5:3")
    assert _member(mx, T, (0, 1, 2))
    assert not _member(mx, T, (1, 1, 0))
    F7 = PrimeField(7)
    assert _member(mx, F7, 0)
    assert not _member(mx, F7, 1)
    with pytest.raises(UnsupportedRing):
        _member(mx, ring_from_string("poly:Q"), ())


def test_ideal_xmult_and_extmax():
    P = ring_from_string("poly:Q")
    xm = IdealDescriptor("xmult")
    X = variable(P)
    assert _member(xm, P, (X * X + X).payload)
    assert _member(xm, P, P.zero)
    assert not _member(xm, P, (X + 1).payload)
    with pytest.raises(UnsupportedRing):
        L = ring_from_string("laurent:Q")
        _member(xm, L, L.one)

    em = IdealDescriptor("extmax")
    P9 = ring_from_string("poly:Zpk:3:2")
    assert _member(em, P9, (3, 6))
    assert not _member(em, P9, (1, 3))
    L25 = ring_from_string("laurent:Zpk:5:2")
    assert _member(em, L25, (-1, (5, 10)))
    assert not _member(em, L25, (-1, (5, 1)))
    assert _member(em, P, P.zero)
    assert not _member(em, P, P.one)
    with pytest.raises(UnsupportedRing):
        _member(em, PrimeField(7), 0)
    with pytest.raises(UnsupportedRing):
        IdealDescriptor("prime")


def test_residue_and_lift():
    Z9 = ModularRing(3, 2)
    F3 = PrimeField(3)
    assert residue_ring(Z9) == F3
    assert Z9.reduce(7) == 1
    assert Z9.lift(2) == 2
    T = ring_from_string("trunc:Fp:5:3")
    F5 = PrimeField(5)
    assert residue_ring(T) == F5
    assert T.reduce((2, 1, 0)) == 2
    assert T.lift(2) == (2, 0, 0)
    assert residue_ring(F5) == F5
    assert F5.reduce(3) == F5.lift(3) == 3
    rng = random.Random(5)
    for _ in range(50):
        x = F3.sample(rng)
        assert Z9.reduce(Z9.lift(x)) == x
    with pytest.raises(UnsupportedRing):
        residue_ring(ring_from_string("poly:Q"))


LOCAL = ["Q", "Fp:3", "Zpk:3:2", "Zpk:5:2", "trunc:F3:3", "trunc:Q:2"]


@pytest.mark.parametrize("descriptor", LOCAL)
def test_reduce_is_a_ring_map_and_lift_a_section(descriptor):
    R = ring_from_string(descriptor)
    S = R.residue
    assert residue_ring(R) is S
    assert R.reduce(R.zero) == S.zero and R.reduce(R.one) == S.one
    mx = IdealDescriptor("max")
    rng = random.Random(17)
    for _ in range(200):
        a, b = R.sample(rng), R.sample(rng)
        assert R.reduce(R.add(a, b)) == S.add(R.reduce(a), R.reduce(b))
        assert R.reduce(R.mul(a, b)) == S.mul(R.reduce(a), R.reduce(b))
        assert _member(mx, R, a) == S.is_zero(R.reduce(a))
        x = S.sample(rng)
        assert R.reduce(R.lift(x)) == x
        assert R.from_json(R.to_json(R.lift(x))) == R.lift(x)  # a canonical payload of R


@pytest.mark.parametrize("descriptor", ["poly:Q", "poly:Zpk:3:2", "laurent:Fp:7", "laurent:trunc:Q:2"])
def test_polynomial_rings_have_no_residue_field(descriptor):
    R = ring_from_string(descriptor)
    assert R.residue is None
    with pytest.raises(UnsupportedRing):
        residue_ring(R)
    with pytest.raises(UnsupportedRing):
        _member(IdealDescriptor("max"), R, R.zero)


def test_scalar_from_string():
    Q = RationalField()
    assert scalar_from_string(Q, "3/4") == scalar(Q, Fraction(3, 4))
    assert scalar_from_string(Q, "-2") == scalar(Q, -2)
    assert scalar_from_string(Q, "-30/70") == scalar(Q, Fraction(-3, 7))
    F7 = PrimeField(7)
    assert scalar_from_string(F7, "10") == scalar(F7, 3)
    assert scalar_from_string(F7, " -13 ") == scalar(F7, 1)
    P = ring_from_string("poly:Fp:5")
    s = '{"coeffs": [{"mod": 5, "val": 1}, {"mod": 5, "val": 2}]}'
    assert scalar_from_string(P, s).payload == (1, 2)
    with pytest.raises(JSONFormatError):
        scalar_from_string(F7, "x")
    with pytest.raises(JSONFormatError):
        scalar_from_string(P, "{not json")


# int() also reads other scripts' digits, underscores, a plus sign and
# surrounding whitespace: "1_0" once loaded as 10 and the Arabic-Indic
# "\u0663" as 3.  Rationals and modular scalar text, like descriptors
# (test_bad_descriptors), take an optional minus and ASCII digits 0-9 only.
@pytest.mark.parametrize("bad", ["\u0663", "-\u0663/\u0667", "3\n", "1_0", "1/1_0", "+3", " 3",
                                 "1/-2"])
def test_rationals_are_ascii_digits(bad):
    with pytest.raises(JSONFormatError, match="^bad rational"):
        RationalField().from_json(bad)


@pytest.mark.parametrize("bad", ["1_3", "\u0663", "+3", "3 4"])
def test_modular_scalar_text_is_ascii_digits(bad):
    with pytest.raises(JSONFormatError, match="^cannot parse scalar"):
        scalar_from_string(PrimeField(5), bad)


def test_scalar_from_json_helper():
    F7 = PrimeField(7)
    assert scalar_from_json(F7, {"mod": 7, "val": 4}) == scalar(F7, 4)


def test_sampling_is_deterministic():
    for ring in RINGS:
        a = [ring.sample(random.Random(11)) for _ in range(20)]
        b = [ring.sample(random.Random(11)) for _ in range(20)]
        assert a == b


def test_canonical_json_is_stable():
    obj = {"b": [1, 2], "a": {"y": 1, "x": 2}}
    assert canonical_json(obj) == '{"a":{"x":2,"y":1},"b":[1,2]}'


@given(st.fractions(), st.fractions(), st.fractions())
@settings(max_examples=200, deadline=None)
def test_rational_distributivity(a, b, c):
    Q = RationalField()
    x, y, z = scalar(Q, a), scalar(Q, b), scalar(Q, c)
    assert x * (y + z) == x * y + x * z


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=50, deadline=None)
def test_prime_field_inverse_law(v):
    F7 = PrimeField(7)
    assert scalar(F7, v) * scalar(F7, v).inv() == 1


def test_prime_check_is_exact_and_fast():
    started = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1  # a 19-digit prime
    assert time.perf_counter() - started < 1.0
    for carmichael in (561, 41041, 3215031751):
        with pytest.raises(UnsupportedRing):
            PrimeField(carmichael)
    # A strong pseudoprime to the first 12 prime bases; base 41 exposes it.
    with pytest.raises(UnsupportedRing):
        ModularRing(318665857834031151167461, 2)
    with pytest.raises(UnsupportedRing):
        ring_from_string("Fp:3317044064679887385961981")
    small = [p for p in range(-3, 3000) if p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))]
    assert [p for p in range(-3, 3000) if _is_prime(p)] == small


def test_ring_descriptor_must_be_a_string():
    for bad in (5, None, ["Q"]):
        with pytest.raises(UnsupportedRing):
            ring_from_string(bad)


@pytest.fixture
def digit_limit():
    """Python's default int-to-str digit limit, restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def test_show_never_raises_on_an_oversized_rational(digit_limit):
    Q = RationalField()
    big = Fraction(10**5000)
    assert Q.show(big) == "<rational of 16610/1 bits>"
    assert Q.show(Fraction(1, 3 ** 10000)) == "<rational of 1/15850 bits>"
    assert Q.show(Fraction(-7, 3)) == "-7/3"
    P = PolynomialRing(Q)
    with pytest.raises(NotAUnit, match=r"\(<rational of 16610/1 bits>\) \+ X is not a unit"):
        P.inv((big, Fraction(1)))
    m = matrix(Q, [[big, 0], [0, 1]])
    assert repr(m) == "Matrix(Q, dim=2)\n[<rational of 16610/1 bits>, 0]\n[0, 1]"
    assert repr(Scalar(Q, big)) == "<rational of 16610/1 bits>"
