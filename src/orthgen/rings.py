"""Exact scalar arithmetic over the supported coefficient rings.

A ring object implements arithmetic on raw payloads (Fraction, int,
tuple); the Scalar wrapper pairs a payload with its ring and carries
the operator sugar.  Supported kinds: the rationals, odd prime fields,
odd prime-power residue rings, truncated polynomial rings over a field,
and polynomial or Laurent polynomial rings over any scalar base kind.
2 must be a unit everywhere, so characteristic 2 is rejected up front.

Payloads are kept in canonical form at all times (reduced Fraction,
least nonnegative residue, trimmed coefficient tuples), so tuple and
integer equality is ring equality.  Every ring also adds a scaled line
to a line in place (axpy on a row, col_axpy on a column of a row-major
matrix); the modular rings run it as plain integer arithmetic.  A local
scalar ring names its residue field, with payload maps to it and back.
A ring writes a payload's canonical JSON text with to_text, the one
spelling of the scalar format (to_json reads that text back), and reads
a matrix row with row_from_json, which the modular rings check inline.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .errors import JSONFormatError, NotAUnit, OrthgenError, RingMismatch, UnsupportedRing

__all__ = [
    "Ring",
    "RationalField",
    "PrimeField",
    "ModularRing",
    "TruncatedRing",
    "PolynomialRing",
    "LaurentRing",
    "Scalar",
    "IdealDescriptor",
    "ring_from_string",
    "scalar_from_string",
    "scalar_from_json",
    "variable",
    "laurent_of_poly",
    "residue_ring",
    "canonical_json",
]

# Base kinds a polynomial or Laurent ring may sit over.  Nested
# polynomial rings are out of scope.
_SCALAR_KINDS = ("Q", "Fp", "Zpk", "trunc")


# Miller-Rabin on the first 13 prime bases decides primality exactly
# below _MR_LIMIT (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981

# Zpk:<p>:<k> is refused when its modulus p^k may exceed this many bits,
# judged from k * bit_length(p) before any power is computed: building
# p^k and 1/2 mod p^k for a descriptor like Zpk:3:1000000000 would stall.
_MAX_MODULUS_BITS = 4096

# A Laurent scalar read from JSON may not have |offset| above this: sums
# allocate a dense coefficient list spanning both offsets, so an offset
# like 10**40 would overflow and one near 2**30 would take gigabytes.
_MAX_LAURENT_OFFSET = 4096


def _is_prime(p: int) -> bool:
    if p >= _MR_LIMIT:
        raise UnsupportedRing(f"cannot decide primality of {p}: limit is {_MR_LIMIT}")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _int_from_json(obj, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise JSONFormatError(f"{what} must be an integer, got {obj!r}")
    return obj


class Ring:
    """Payload-level arithmetic for one coefficient ring.

    A local scalar ring names its residue field as residue and maps
    payloads to it with reduce and back with lift (a canonical preimage);
    both are the identity on a field.  Other rings have residue None.
    """

    kind: str
    descriptor: str
    residue: "Ring | None" = None

    def reduce(self, a):
        return a

    def lift(self, a):
        return a

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and self.descriptor == other.descriptor

    def __hash__(self) -> int:
        return hash(self.descriptor)

    def __repr__(self) -> str:
        return self.descriptor

    def sample_unit(self, rng):
        while True:
            a = self.sample(rng)
            if self.is_unit(a):
                return a

    def axpy(self, dst, src, c) -> None:
        """dst[j] += c*src[j] in place, over the nonzero entries of src."""
        add, mul, is_zero = self.add, self.mul, self.is_zero
        for j, s in enumerate(src):
            if not is_zero(s):
                dst[j] = add(dst[j], mul(c, s))

    def col_axpy(self, rows, target: int, source: int, c) -> None:
        """row[target] += c*row[source] in place for each row, over nonzero sources."""
        add, mul, is_zero = self.add, self.mul, self.is_zero
        for row in rows:
            s = row[source]
            if not is_zero(s):
                row[target] = add(row[target], mul(c, s))

    def to_json(self, a):
        """a as a JSON value, read back from to_text, the one spelling of the format."""
        return json.loads(self.to_text(a))

    def row_from_json(self, row) -> list:
        """The payloads of one row of JSON scalars, each read by from_json."""
        return [self.from_json(x) for x in row]

    # subclasses implement: zero, one, half, from_int, add, neg, mul,
    # is_zero, is_unit, inv, show, to_text, from_json, sample


def _oversized() -> JSONFormatError:
    """Python turns no int to or from a string of more than this many digits."""
    return JSONFormatError(f"rational with more than {sys.get_int_max_str_digits()} digits is outside the JSON format")


class RationalField(Ring):
    kind = "Q"
    residue = property(lambda self: self)

    def __init__(self) -> None:
        self.descriptor = "Q"
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.half = Fraction(1, 2)

    def from_int(self, k):
        if isinstance(k, Fraction):
            return k
        return Fraction(k)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return not a

    def is_unit(self, a) -> bool:
        return bool(a)

    def inv(self, a):
        if not a:
            raise NotAUnit("0 is not invertible in Q")
        return 1 / a

    def show(self, a) -> str:
        try:
            return str(a)
        except ValueError:  # past the int-to-str digit limit
            return f"<rational of {a.numerator.bit_length()}/{a.denominator.bit_length()} bits>"

    def to_text(self, a) -> str:
        try:
            return f'"{a.numerator}"' if a.denominator == 1 else f'"{a.numerator}/{a.denominator}"'
        except ValueError:
            raise _oversized() from None

    def from_json(self, obj):
        if isinstance(obj, bool):
            raise JSONFormatError(f"bad rational {obj!r}")
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            num, slash, den = obj.partition("/")
            try:
                num, den = _ascii_int(num), _ascii_int(den) if slash else 1
            except ValueError:
                raise _oversized() from None
            if num is not None and den is not None and den >= 0:
                if den == 0:
                    raise JSONFormatError("zero denominator")
                return Fraction(num, den)
        raise JSONFormatError(f"bad rational {obj!r}")

    def sample(self, rng):
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))

    def sample_unit(self, rng):
        sign = -1 if rng.randrange(2) else 1
        return Fraction(sign * rng.randrange(1, 10), rng.randrange(1, 10))


class _ModularBase(Ring):
    """Shared arithmetic for Z/m with m a prime power."""

    p: int
    modulus: int

    def from_int(self, k):
        return int(k) % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def is_zero(self, a) -> bool:
        return a == 0

    # The line ops inline the arithmetic: one (y + c*x) % m per nonzero x.
    def axpy(self, dst, src, c) -> None:
        m = self.modulus
        for j, s in enumerate(src):
            if s:
                dst[j] = (dst[j] + c * s) % m

    def col_axpy(self, rows, target: int, source: int, c) -> None:
        m = self.modulus
        for row in rows:
            s = row[source]
            if s:
                row[target] = (row[target] + c * s) % m

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise NotAUnit(f"{a} is not invertible mod {self.modulus}")
        return pow(a, -1, self.modulus)

    def show(self, a) -> str:
        return str(a)

    def to_text(self, a) -> str:
        return f'{{"mod":{self.modulus},"val":{a}}}'

    def from_json(self, obj):
        if not isinstance(obj, dict) or set(obj) != {"mod", "val"}:
            raise JSONFormatError(f"bad modular scalar {obj!r}")
        m = _int_from_json(obj["mod"], "mod")
        v = _int_from_json(obj["val"], "val")
        if m != self.modulus:
            raise JSONFormatError(f"modulus {m} does not match {self.descriptor}")
        if not 0 <= v < m:
            raise JSONFormatError(f"value {v} out of range mod {m}")
        return v

    def row_from_json(self, row) -> list:
        """Reads each exact {"mod": m, "val": v} inline; from_json reads, and refuses, any other."""
        m = self.modulus
        out = []
        for x in row:
            if type(x) is dict and len(x) == 2:
                mod, v = x.get("mod"), x.get("val")
                if type(mod) is int and mod == m and type(v) is int and 0 <= v < m:
                    out.append(v)
                    continue
            out.append(self.from_json(x))
        return out

    def sample(self, rng):
        return rng.randrange(self.modulus)


class PrimeField(_ModularBase):
    kind = "Fp"
    residue = property(lambda self: self)

    def __init__(self, p: int) -> None:
        if not _is_prime(p):
            raise UnsupportedRing(f"{p} is not prime")
        if p == 2:
            raise UnsupportedRing("2 must be a unit, so p = 2 is not supported")
        self.p = p
        self.modulus = p
        self.descriptor = f"Fp:{p}"
        self.zero = 0
        self.one = 1
        self.half = pow(2, -1, p)

    def is_unit(self, a) -> bool:
        return a != 0

    def sample_unit(self, rng):
        return rng.randrange(1, self.p)


class ModularRing(_ModularBase):
    """Z/p^k with k >= 2; k = 1 belongs to PrimeField."""

    kind = "Zpk"

    def __init__(self, p: int, k: int) -> None:
        residue = PrimeField(p)  # rejects p = 2 and composite p
        if k < 2:
            raise UnsupportedRing("exponent must be >= 2, use Fp for k = 1")
        if k * p.bit_length() > _MAX_MODULUS_BITS:
            raise UnsupportedRing(f"modulus {p}^{k} exceeds {_MAX_MODULUS_BITS} bits")
        self.residue = residue
        self.p = p
        self.k = k
        self.modulus = p**k
        self.descriptor = f"Zpk:{p}:{k}"
        self.zero = 0
        self.one = 1
        self.half = pow(2, -1, self.modulus)

    def reduce(self, a):
        return a % self.p


def _poly_str(coeffs, var: str, base: Ring, offset: int = 0) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if base.is_zero(c):
            continue
        e = k + offset
        cs = base.show(c)
        if "+" in cs or "-" in cs[1:] or " " in cs:
            cs = f"({cs})"
        if e == 0:
            terms.append(cs)
            continue
        xs = var if e == 1 else f"{var}^{e}"
        terms.append(xs if cs == "1" else f"{cs}*{xs}")
    return " + ".join(terms) if terms else "0"


def _coeffs_text(base: Ring, coeffs, tail: str = "") -> str:
    """The text {"coeffs":[...]<tail>} of a coefficient sequence over base."""
    return '{"coeffs":[' + ",".join(map(base.to_text, coeffs)) + "]" + tail + "}"


def _convolve(B: Ring, a, b, size: int) -> list:
    """Coefficients of a*b over the base B, cut to the first size terms."""
    out = [B.zero] * size
    for i, ai in enumerate(a):
        if B.is_zero(ai):
            continue
        for j, bj in enumerate(b[: size - i]):
            if not B.is_zero(bj):
                out[i + j] = B.add(out[i + j], B.mul(ai, bj))
    return out


class TruncatedRing(Ring):
    """base[t]/(t^e) over a field base; payload is a tuple of e coefficients."""

    kind = "trunc"

    def __init__(self, base: Ring, e: int) -> None:
        if base.kind not in ("Q", "Fp"):
            raise UnsupportedRing(f"truncated ring needs a field base, got {base.descriptor}")
        if not isinstance(e, int) or e < 1:
            raise UnsupportedRing(f"truncation order must be a positive integer, got {e!r}")
        self.base = base
        self.residue = base
        self.e = e
        self.descriptor = f"trunc:{base.descriptor}:{e}"
        self.zero = (base.zero,) * e
        self.one = (base.one,) + (base.zero,) * (e - 1)
        self.half = (base.half,) + (base.zero,) * (e - 1)

    def from_int(self, k):
        return (self.base.from_int(k),) + (self.base.zero,) * (self.e - 1)

    def add(self, a, b):
        B = self.base
        return tuple(B.add(x, y) for x, y in zip(a, b))

    def neg(self, a):
        B = self.base
        return tuple(B.neg(x) for x in a)

    def mul(self, a, b):
        return tuple(_convolve(self.base, a, b, self.e))

    def is_zero(self, a) -> bool:
        B = self.base
        return all(B.is_zero(c) for c in a)

    def reduce(self, a):
        return a[0]

    def lift(self, a):
        return (a,) + self.zero[1:]

    def is_unit(self, a) -> bool:
        return not self.base.is_zero(a[0])

    def inv(self, a):
        B = self.base
        if B.is_zero(a[0]):
            raise NotAUnit(f"{self.show(a)} is not invertible in {self.descriptor}")
        c0 = B.inv(a[0])
        out = [c0] + [B.zero] * (self.e - 1)
        for k in range(1, self.e):
            s = B.zero
            for i in range(1, k + 1):
                s = B.add(s, B.mul(a[i], out[k - i]))
            out[k] = B.neg(B.mul(c0, s))
        return tuple(out)

    def show(self, a) -> str:
        return _poly_str(a, "t", self.base)

    def to_text(self, a) -> str:
        return _coeffs_text(self.base, a)

    def from_json(self, obj):
        if not isinstance(obj, dict) or set(obj) != {"coeffs"}:
            raise JSONFormatError(f"bad truncated scalar {obj!r}")
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, list) or len(coeffs) != self.e:
            raise JSONFormatError(f"expected exactly {self.e} coefficients")
        B = self.base
        return tuple(B.from_json(c) for c in coeffs)

    def sample(self, rng):
        B = self.base
        return tuple(B.sample(rng) for _ in range(self.e))

    def sample_unit(self, rng):
        B = self.base
        return (B.sample_unit(rng),) + tuple(B.sample(rng) for _ in range(self.e - 1))


class PolynomialRing(Ring):
    """base[X]; payload is a coefficient tuple trimmed of trailing zeros."""

    kind = "poly"

    def __init__(self, base: Ring) -> None:
        if base.kind not in _SCALAR_KINDS:
            raise UnsupportedRing(f"polynomial base may not be {base.descriptor}")
        self.base = base
        self.descriptor = f"poly:{base.descriptor}"
        self.zero = ()
        self.one = (base.one,)
        self.half = (base.half,)

    def make(self, coeffs) -> tuple:
        """Canonical payload from a coefficient sequence (constant term first)."""
        out = list(coeffs)
        B = self.base
        while out and B.is_zero(out[-1]):
            out.pop()
        return tuple(out)

    def from_int(self, k):
        c = self.base.from_int(k)
        return () if self.base.is_zero(c) else (c,)

    def add(self, a, b):
        B = self.base
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = B.add(out[i], c)
        return self.make(out)

    def neg(self, a):
        B = self.base
        return tuple(B.neg(c) for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        return self.make(_convolve(self.base, a, b, len(a) + len(b) - 1))

    def is_zero(self, a) -> bool:
        return a == ()

    def is_unit(self, a) -> bool:
        # Constant units only.  Over a non-reduced base ring some
        # nonconstant polynomials are invertible; those are rejected here.
        return len(a) == 1 and self.base.is_unit(a[0])

    def inv(self, a):
        if not self.is_unit(a):
            raise NotAUnit(f"{self.show(a)} is not a unit constant in {self.descriptor}")
        return (self.base.inv(a[0]),)

    def show(self, a) -> str:
        return _poly_str(a, "X", self.base)

    def to_text(self, a) -> str:
        return _coeffs_text(self.base, a)

    def from_json(self, obj):
        if not isinstance(obj, dict) or set(obj) != {"coeffs"}:
            raise JSONFormatError(f"bad polynomial scalar {obj!r}")
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, list):
            raise JSONFormatError("coeffs must be a list")
        B = self.base
        return self.make([B.from_json(c) for c in coeffs])

    def sample(self, rng):
        B = self.base
        n = rng.randrange(1, 5)
        return self.make([B.sample(rng) for _ in range(n)])

    def sample_unit(self, rng):
        return (self.base.sample_unit(rng),)


class LaurentRing(Ring):
    """base[X, 1/X]; payload is (offset, coeffs) trimmed at both ends."""

    kind = "laurent"

    def __init__(self, base: Ring) -> None:
        if base.kind not in _SCALAR_KINDS:
            raise UnsupportedRing(f"Laurent base may not be {base.descriptor}")
        self.base = base
        self.descriptor = f"laurent:{base.descriptor}"
        self.zero = (0, ())
        self.one = (0, (base.one,))
        self.half = (0, (base.half,))

    def make(self, offset: int, coeffs) -> tuple:
        """Canonical payload: strip zero coefficients at both ends."""
        out = list(coeffs)
        B = self.base
        while out and B.is_zero(out[-1]):
            out.pop()
        while out and B.is_zero(out[0]):
            out.pop(0)
            offset += 1
        if not out:
            return (0, ())
        return (offset, tuple(out))

    def from_int(self, k):
        c = self.base.from_int(k)
        return (0, ()) if self.base.is_zero(c) else (0, (c,))

    def add(self, a, b):
        oa, ca = a
        ob, cb = b
        if not ca:
            return b
        if not cb:
            return a
        B = self.base
        lo = min(oa, ob)
        hi = max(oa + len(ca), ob + len(cb))
        out = [B.zero] * (hi - lo)
        for i, c in enumerate(ca):
            out[oa - lo + i] = c
        for i, c in enumerate(cb):
            out[ob - lo + i] = B.add(out[ob - lo + i], c)
        return self.make(lo, out)

    def neg(self, a):
        o, ca = a
        B = self.base
        return (o, tuple(B.neg(c) for c in ca))

    def mul(self, a, b):
        oa, ca = a
        ob, cb = b
        if not ca or not cb:
            return (0, ())
        return self.make(oa + ob, _convolve(self.base, ca, cb, len(ca) + len(cb) - 1))

    def is_zero(self, a) -> bool:
        return a[1] == ()

    def is_unit(self, a) -> bool:
        return len(a[1]) == 1 and self.base.is_unit(a[1][0])

    def inv(self, a):
        o, ca = a
        if len(ca) != 1 or not self.base.is_unit(ca[0]):
            raise NotAUnit(f"{self.show(a)} is not a unit monomial in {self.descriptor}")
        return (-o, (self.base.inv(ca[0]),))

    def bounds(self, a):
        """(lowest, highest) exponent with a nonzero coefficient, or None."""
        o, ca = a
        if not ca:
            return None
        return (o, o + len(ca) - 1)

    def show(self, a) -> str:
        o, ca = a
        return _poly_str(ca, "X", self.base, offset=o)

    def to_text(self, a) -> str:
        o, ca = a
        return _coeffs_text(self.base, ca, f',"offset":{o}')

    def from_json(self, obj):
        if not isinstance(obj, dict) or set(obj) != {"offset", "coeffs"}:
            raise JSONFormatError(f"bad Laurent scalar {obj!r}")
        o = _int_from_json(obj["offset"], "offset")
        if abs(o) > _MAX_LAURENT_OFFSET:
            raise JSONFormatError(f"offset {o} exceeds the ceiling {_MAX_LAURENT_OFFSET}")
        coeffs = obj["coeffs"]
        if not isinstance(coeffs, list):
            raise JSONFormatError("coeffs must be a list")
        B = self.base
        return self.make(o, [B.from_json(c) for c in coeffs])

    def sample(self, rng):
        B = self.base
        o = rng.randrange(-2, 3)
        n = rng.randrange(1, 4)
        return self.make(o, [B.sample(rng) for _ in range(n)])

    def sample_unit(self, rng):
        return (rng.randrange(-2, 3), (self.base.sample_unit(rng),))


class Scalar:
    """A ring element: a raw payload tagged with its ring."""

    __slots__ = ("ring", "payload")

    def __init__(self, ring: Ring, payload) -> None:
        self.ring = ring
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                raise RingMismatch(f"{self.ring.descriptor} vs {other.ring.descriptor}")
            return other.payload
        if isinstance(other, int) and not isinstance(other, bool):
            return self.ring.from_int(other)
        return None

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.add(self.payload, p))

    __radd__ = __add__

    def __sub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.add(self.payload, self.ring.neg(p)))

    def __neg__(self):
        return Scalar(self.ring, self.ring.neg(self.payload))

    def __mul__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return Scalar(self.ring, self.ring.mul(self.payload, p))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            if other.ring != self.ring:
                return False
            return self.payload == other.payload
        if isinstance(other, int) and not isinstance(other, bool):
            return self.payload == self.ring.from_int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring.descriptor, self.payload))

    def __bool__(self) -> bool:
        return not self.ring.is_zero(self.payload)

    def __repr__(self) -> str:
        return self.ring.show(self.payload)

    def is_zero(self) -> bool:
        return self.ring.is_zero(self.payload)

    def inv(self) -> "Scalar":
        return Scalar(self.ring, self.ring.inv(self.payload))


class IdealDescriptor:
    """Named ideal of a supported ring, used for congruence and locality checks.

    Kinds: "zero" (the zero ideal, any ring), "max" (the maximal ideal of
    a local scalar ring; zero in a field), "xmult" (multiples of X in a
    polynomial ring), "extmax" (coefficientwise maximal ideal of the base,
    in a polynomial or Laurent ring).
    """

    __slots__ = ("kind",)

    KINDS = ("zero", "max", "xmult", "extmax")

    def __init__(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise UnsupportedRing(f"unknown ideal kind {kind!r}")
        self.kind = kind

    def __repr__(self) -> str:
        return self.kind

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IdealDescriptor) and self.kind == other.kind

    def __hash__(self) -> int:
        return hash(("ideal", self.kind))

    def validate_for(self, ring: Ring) -> None:
        if self.kind == "zero":
            return
        if self.kind == "max":
            if ring.residue is not None:
                return
            raise UnsupportedRing(f"ideal 'max' is undefined for {ring.descriptor}")
        if self.kind == "xmult":
            if ring.kind == "poly":
                return
            raise UnsupportedRing(f"ideal 'xmult' is undefined for {ring.descriptor}")
        if ring.kind in ("poly", "laurent"):
            return
        raise UnsupportedRing(f"ideal 'extmax' is undefined for {ring.descriptor}")

    def _member(self, ring: Ring, payload) -> bool:
        """Is payload in the ideal?  Its one caller, matrices_congruent, validates the ring."""
        if self.kind == "zero":
            return ring.is_zero(payload)
        if self.kind == "max":
            return ring.residue.is_zero(ring.reduce(payload))
        if self.kind == "xmult":
            return payload == () or ring.base.is_zero(payload[0])
        B = ring.base
        coeffs = payload if ring.kind == "poly" else payload[1]
        return all(B.residue.is_zero(B.reduce(c)) for c in coeffs)


def ring_from_string(s: str) -> Ring:
    """Parse a ring descriptor.

    Grammar: Q | Fp:<p> | Zpk:<p>:<k> | trunc:<base>:<e> | poly:<base>
    | laurent:<base>.  F<p> is accepted as shorthand for Fp:<p>, and
    Zpk:<p>:1 collapses to the prime field.
    """
    if not isinstance(s, str):
        raise UnsupportedRing(f"ring descriptor must be a string, got {s!r}")
    s = s.strip()
    bad = UnsupportedRing(f"cannot parse ring descriptor {s!r}")
    if s == "Q":
        return RationalField()
    if s.startswith("F"):  # Fp:<p> or the F<p> shorthand
        return PrimeField(_parse_int(s[3:] if s.startswith("Fp:") else s[1:], bad))
    if s.startswith("Zpk:"):
        p, _, k = s[4:].partition(":")
        p, k = _parse_int(p, bad), _parse_int(k, bad)
        return PrimeField(p) if k == 1 else ModularRing(p, k)
    if s.startswith("trunc:"):
        base_str, sep, e_str = s[6:].rpartition(":")
        if not sep:
            raise bad
        return TruncatedRing(ring_from_string(base_str), _parse_int(e_str, bad))
    if s.startswith("poly:"):
        return PolynomialRing(ring_from_string(s[5:]))
    if s.startswith("laurent:"):
        return LaurentRing(ring_from_string(s[8:]))
    raise bad


_ASCII_INT = re.compile(r"-?[0-9]+")


def _ascii_int(tok: str):
    """tok as an int if it is an optional minus and ASCII digits 0-9, else None.

    int() alone also reads other scripts' digits, underscores, a plus sign
    and whitespace; past Python's digit limit it raises ValueError.
    """
    return int(tok) if _ASCII_INT.fullmatch(tok) else None


def _parse_int(tok: str, error: OrthgenError) -> int:
    """tok read by _ascii_int, or error when it is no integer or too long to read."""
    try:
        k = _ascii_int(tok)
    except ValueError:
        k = None
    if k is None:
        raise error
    return k


def scalar_from_json(ring: Ring, obj) -> Scalar:
    return Scalar(ring, ring.from_json(obj))


def scalar_from_string(ring: Ring, s: str) -> Scalar:
    """Parse a scalar from CLI text: an integer, a/b over Q, or scalar JSON.

    Over Q the text follows the JSON grammar -?N or -?N/D, so decimal and
    exponent forms are refused rather than expanded.
    """
    s = s.strip()
    if s.startswith("{"):
        try:
            obj = json.loads(s)
        except ValueError as exc:
            raise JSONFormatError(f"bad scalar JSON: {exc}") from None
        return Scalar(ring, ring.from_json(obj))
    if ring.kind == "Q":
        return Scalar(ring, ring.from_json(s))
    k = _parse_int(s, JSONFormatError(f"cannot parse scalar {s!r} for {ring.descriptor}"))
    return Scalar(ring, ring.from_int(k))


def variable(ring: Ring) -> Scalar:
    """The scalar X of a polynomial or Laurent ring."""
    if ring.kind == "poly":
        return Scalar(ring, (ring.base.zero, ring.base.one))
    if ring.kind == "laurent":
        return Scalar(ring, (1, (ring.base.one,)))
    raise UnsupportedRing(f"{ring.descriptor} has no distinguished variable")


def laurent_of_poly(x: Scalar) -> Scalar:
    """Image of a polynomial scalar in the Laurent ring over the same base."""
    if x.ring.kind != "poly":
        raise UnsupportedRing(f"expected a polynomial scalar, got {x.ring.descriptor}")
    L = LaurentRing(x.ring.base)
    return Scalar(L, L.make(0, x.payload))


def residue_ring(ring: Ring) -> Ring:
    """Quotient of a local scalar ring by its maximal ideal."""
    if ring.residue is None:
        raise UnsupportedRing(f"{ring.descriptor} is not a local scalar ring")
    return ring.residue


def canonical_json(obj) -> str:
    """One true JSON rendering: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
