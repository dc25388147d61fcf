"""Random inputs and scalar and matrix builders shared by several test modules."""

from orthgen.quadratic_space import Matrix
from orthgen.rings import Scalar

# One ring of every kind the kernels are checked over.
RINGS = ("Q", "Fp:5", "Zpk:3:2", "trunc:F5:3", "poly:Q", "laurent:Q")


def scalar(ring, k):
    """The Scalar of ring that the int (or, over Q, Fraction) k names."""
    return Scalar(ring, ring.from_int(k))


def matrix(ring, rows):
    """A square Matrix over ring from rows of ints or Scalars of ring."""

    def payload(x):
        if isinstance(x, Scalar):
            assert x.ring == ring, (x.ring, ring)
            return x.payload
        return ring.from_int(x)

    return Matrix(ring, [[payload(x) for x in row] for row in rows], copy=False)


def random_matrix(ring, dim, rng):
    """A random square matrix with about 70% of its entries sampled, the rest zero."""
    rows = [[ring.sample(rng) if rng.random() < 0.7 else ring.zero for _ in range(dim)]
            for _ in range(dim)]
    return Matrix(ring, rows, copy=False)


def random_perm(ctx, rng) -> tuple:
    """A random delta-commuting permutation as a 1-based image tuple."""
    n = ctx.n
    block = list(range(1, n + 1))
    rng.shuffle(block)
    swap = [rng.random() < 0.5 for _ in range(n)]
    out = [0] * ctx.dim
    off = 1 if ctx.odd else 0
    if ctx.odd:
        out[0] = 1
    for i in range(1, n + 1):
        t = block[i - 1]
        ui, vi = (t + off, n + t + off) if not swap[i - 1] else (n + t + off, t + off)
        out[i - 1 + off] = ui
        out[n + i - 1 + off] = vi
    return tuple(out)
