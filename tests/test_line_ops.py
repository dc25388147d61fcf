"""The ring line ops against the generic default and the per-entry loop.

Ring.axpy (dst += c*src over a row) and Ring.col_axpy (one column of a
row-major matrix plus c times another) have a generic default built from
add, mul and is_zero; the modular rings override both with inline
integer arithmetic.  Each ring's ops are compared with the generic
default and with the loop Matrix.row_add and col_add ran before the ops
existed, in both shapes, on sparse, dense and all-zero lines and with
coefficients 0, 1, -1 and random, and every payload must stay canonical.
"""

import random

import pytest

from orthgen.quadratic_space import Matrix
from orthgen.rings import Ring, ring_from_string

from sampling import RINGS, random_matrix

DIM = 7


def _old_row_loop(R, dst, src, c):
    for j, s in enumerate(src):
        if not R.is_zero(s):
            dst[j] = R.add(dst[j], R.mul(c, s))


def _old_col_loop(R, rows, target, source, c):
    for row in rows:
        s = row[source]
        if not R.is_zero(s):
            row[target] = R.add(row[target], R.mul(c, s))


def _line(R, rng, density):
    return [R.sample(rng) if rng.random() < density else R.zero for _ in range(DIM)]


def _coefficients(R, rng):
    return [R.zero, R.one, R.neg(R.one)] + [R.sample(rng) for _ in range(3)]


def _assert_canonical(R, payloads):
    # A payload survives the JSON round trip unchanged only in canonical
    # form: least nonnegative residue, reduced Fraction, trimmed tuples.
    for x in payloads:
        assert R.from_json(R.to_json(x)) == x, (R.descriptor, x)


@pytest.mark.parametrize("desc", RINGS)
def test_row_op_matches_the_generic_default_and_the_old_loop(desc):
    R = ring_from_string(desc)
    rng = random.Random(f"row:{desc}")
    for density in (0.0, 0.2, 0.7, 1.0):
        for _ in range(8):
            dst, src = _line(R, rng, 0.7), _line(R, rng, density)
            for c in _coefficients(R, rng):
                got, generic, old = dst[:], dst[:], dst[:]
                R.axpy(got, src, c)
                Ring.axpy(R, generic, src, c)
                _old_row_loop(R, old, src, c)
                assert got == generic == old
                _assert_canonical(R, got)
            # dst and src may be the same line: each entry reads itself
            # before it is written, so the line is scaled by 1 + c.
            c = R.sample(rng)
            got, old = src[:], src[:]
            R.axpy(got, got, c)
            _old_row_loop(R, old, src, c)
            assert got == old


@pytest.mark.parametrize("desc", RINGS)
def test_column_op_matches_the_generic_default_and_the_old_loop(desc):
    R = ring_from_string(desc)
    rng = random.Random(f"col:{desc}")
    for density in (0.0, 0.2, 0.7, 1.0):
        for _ in range(8):
            rows = [_line(R, rng, 0.7) for _ in range(DIM)]
            source = rng.randrange(DIM)
            for row in rows:
                row[source] = R.sample(rng) if rng.random() < density else R.zero
            target = rng.randrange(DIM)
            for c in _coefficients(R, rng):
                got, generic, old = ([r[:] for r in rows] for _ in range(3))
                R.col_axpy(got, target, source, c)
                Ring.col_axpy(R, generic, target, source, c)
                _old_col_loop(R, old, target, source, c)
                assert got == generic == old
                for j, (a, b) in enumerate(zip(zip(*got), zip(*rows))):
                    assert j == target or a == b
                _assert_canonical(R, [x for row in got for x in row])


@pytest.mark.parametrize("desc", RINGS)
def test_matrix_line_adds_are_the_elementary_products(desc):
    R = ring_from_string(desc)
    rng = random.Random(f"matrix:{desc}")
    for _ in range(10):
        m = random_matrix(R, DIM, rng)
        target, source = rng.sample(range(DIM), 2)
        for c in _coefficients(R, rng):
            e = Matrix.identity(R, DIM)
            e.rows[target][source] = c
            left, right = m.copy(), m.copy()
            left.row_add(target, source, c)
            right.col_add(source, target, c)
            assert left == e @ m
            assert right == m @ e
