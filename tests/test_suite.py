"""Tests for the identity battery: registry, determinism, mutation guard.

The items that build their matrices by line operations (T4.1, L5.4) are
checked against the dense products they replaced, and L2.3.iv, L5.1
and C4.13 are held to floors of draws on which the case they are about
is alive: a nonzero correction term, a nonzero f, and b^2 != 1.
"""

import hashlib
import random

import pytest

import orthgen.generators as generators
from orthgen import identity_suite
from orthgen.cli import main
from orthgen.decompose import _constant_matrix_over, theta_conjugate
from orthgen.errors import UnknownItem
from orthgen.generators import GenLabel, Word, eval_word, random_word, theta
from orthgen.identity_suite import (
    ITEM_IDS,
    _POLY_RINGS,
    _SCALAR_RINGS,
    _even_frame,
    _l54_sides,
    _law_frame,
    _t41_matrix,
    _transvections,
    _unipotent,
    _unit,
    mutation_selftest,
    run_suite,
)
from orthgen.quadratic_space import (
    FormContext,
    Vector,
    embed_blocks,
    split_blocks,
    unitriangular_inverse,
)
from orthgen.rings import (
    LaurentRing,
    PolynomialRing,
    PrimeField,
    RationalField,
    Scalar,
    canonical_json,
    laurent_of_poly,
    variable,
)
from orthgen.transvections import TransvectionSpec, transvection_matrix


def test_registry_is_closed_and_sorted():
    assert len(ITEM_IDS) == 17
    assert tuple(sorted(ITEM_IDS)) == ITEM_IDS
    assert len(set(ITEM_IDS)) == len(ITEM_IDS)


def test_single_item_run_passes():
    rep = run_suite(["L2.3.i"], 42, 10)
    assert [it["id"] for it in rep.items] == ["L2.3.i"]
    assert rep.items[0]["samples"] == 10
    assert rep.items[0]["failures"] == []


def test_full_run_is_clean():
    rep = run_suite("all", 42, 25)
    assert [it["id"] for it in rep.items] == list(ITEM_IDS)
    assert all(it["samples"] == 25 for it in rep.items)
    assert rep.total_failures == 0


def test_zero_samples_gives_empty_report():
    rep = run_suite("all", 1, 0)
    assert all(it["samples"] == 0 and it["failures"] == [] for it in rep.items)


def test_reports_are_deterministic_and_order_independent():
    a = run_suite(["T4.8", "L2.3.i", "T4.8"], 7, 5)
    b = run_suite(["L2.3.i", "T4.8"], 7, 5)
    assert canonical_json(a.to_json()) == canonical_json(b.to_json())
    assert [it["id"] for it in a.items] == ["L2.3.i", "T4.8"]


def test_report_json_shape_excludes_timing():
    rep = run_suite(["C4.13"], 3, 2)
    blob = rep.to_json()
    assert set(blob) == {"items", "seed"}
    assert blob["seed"] == 3
    assert set(blob["items"][0]) == {"id", "samples", "failures"}
    assert rep.elapsed["C4.13"] >= 0.0


def test_unknown_and_empty_selections():
    with pytest.raises(UnknownItem):
        run_suite(["nope"], 1, 1)
    with pytest.raises(UnknownItem):
        run_suite([], 1, 1)


def test_mutation_selftest_catches_every_sign_flip():
    report = mutation_selftest()
    terms = sum(len(v) for v in generators._F_TERMS.values())
    assert len(report) == terms
    assert all(report.values()), report
    # the table is restored afterwards
    assert run_suite(["D2.7.comm", "T4.2"], 0, 4).total_failures == 0


def test_failures_record_inputs_and_reproduce():
    original = generators._F_TERMS
    mutated = dict(original)
    fam = "F4"
    row, col, coeff, power = original[fam][0]
    mutated[fam] = ((row, col, -coeff, power),) + original[fam][1:]
    generators._F_TERMS = mutated
    try:
        first = run_suite(["D2.7.comm", "T4.2"], 11, 6)
        second = run_suite(["D2.7.comm", "T4.2"], 11, 6)
    finally:
        generators._F_TERMS = original
    assert first.total_failures > 0
    assert canonical_json(first.to_json()) == canonical_json(second.to_json())
    payload = next(it for it in first.items if it["failures"])["failures"][0]
    assert "ring" in payload and "n" in payload


def test_full_report_at_seed_42_is_pinned(capsys):
    # The report every law, split and commutator item must keep reproducing.
    code = main(["identities", "--all", "--seed", "42", "--samples", "100"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fb94314c115e77345116489fe5be07adcbbbc22c7a370156710a1d756c34aad2")


def test_law_iv_and_theta_conjugation_are_not_vacuous():
    # On draws from the suite's samplers, law (iv) without its correction
    # factor and L5.1 against the unscaled frame both give unequal sides,
    # while the identities as stated hold.
    rng = random.Random(3)
    ctx = FormContext(3)
    broken = 0
    for ring in (RationalField(), PrimeField(7)):
        for _ in range(10):
            u, v, w = _law_frame(ring, 3, rng)
            a = Scalar(ring, ring.sample(rng))
            fix = -(a * a * ctx.quad(w))
            lhs = _transvections(ctx, (u, w, a), (v, w, a))
            assert lhs == _transvections(ctx, (u + v, w, a), (u, v, fix))
            broken += lhs != _transvections(ctx, (u + v, w, a))
    assert broken >= 10

    mismatched = 0
    for base in (RationalField(), PrimeField(5)):
        P, L = PolynomialRing(base), LaurentRing(base)
        th = theta(ctx, L)
        for _ in range(10):
            frame = _even_frame(base, 3, rng)
            cols = [[frame.rows[r][idx] for r in range(ctx.dim)] for idx in (1, 2)]
            v, w = (Vector(P, [P.make([c]) for c in comps]) for comps in cols)
            f = Scalar(P, P.make([base.sample(rng), base.one]))
            conj, _ = theta_conjugate(
                transvection_matrix(TransvectionSpec(ctx, v, w, variable(P) * f)), 1, ctx)
            vl, wl = (Vector(L, [L.make(0, [c]) for c in comps]) for comps in cols)
            fl = laurent_of_poly(f)
            assert conj == transvection_matrix(TransvectionSpec(ctx, th.apply(vl), th.apply(wl), fl))
            mismatched += conj != transvection_matrix(TransvectionSpec(ctx, vl, wl, fl))
    assert mismatched == 20


def test_law_iv_correction_is_alive_on_most_suite_draws(monkeypatch):
    # At seed 42 the correction a^2 q(w) is nonzero on 61 of 100 draws.
    # Wrapping _law_holds to count them leaves the draws and the report
    # as they are.
    plain = canonical_json(run_suite(["L2.3.iv"], 42, 100).to_json())
    original = identity_suite._law_holds
    alive = []

    def counting(key, ctx, u, v, w, a, b, alpha):
        if key == "iv":
            alive.append(not (a * a * ctx.quad(w)).is_zero())
        return original(key, ctx, u, v, w, a, b, alpha)

    monkeypatch.setattr(identity_suite, "_law_holds", counting)
    report = run_suite(["L2.3.iv"], 42, 100)
    assert canonical_json(report.to_json()) == plain
    assert report.total_failures == 0
    assert len(alive) == 100
    assert sum(alive) >= 61


def test_l51_scaling_is_alive_on_most_suite_draws(monkeypatch):
    # At seed 42 the drawn f, and so the X-divisible parameter X*f, is
    # nonzero on 90 of 100 draws.  Wrapping TransvectionSpec to count
    # them leaves the draws and the report as they are.
    plain = canonical_json(run_suite(["L5.1"], 42, 100).to_json())
    original = identity_suite.TransvectionSpec
    alive = []

    def counting(ctx, v, w, x):
        if isinstance(x.ring, PolynomialRing):
            alive.append(not x.is_zero())
        return original(ctx, v, w, x)

    monkeypatch.setattr(identity_suite, "TransvectionSpec", counting)
    report = run_suite(["L5.1"], 42, 100)
    assert canonical_json(report.to_json()) == plain
    assert report.total_failures == 0
    assert len(alive) == 100
    assert sum(alive) >= 90


def test_c413_square_is_not_one_on_most_suite_draws(monkeypatch):
    # At seed 42 the drawn unit b has b^2 != 1 on 63 of 100 draws; on the
    # rest the commutator is the identity and the item checks little.
    # Wrapping _unit to count them leaves the draws and the report as
    # they are.
    plain = canonical_json(run_suite(["C4.13"], 42, 100).to_json())
    original = identity_suite._unit
    alive = []

    def counting(ring, rng):
        b = original(ring, rng)
        alive.append(b * b != 1)
        return b

    monkeypatch.setattr(identity_suite, "_unit", counting)
    report = run_suite(["C4.13"], 42, 100)
    assert canonical_json(report.to_json()) == plain
    assert report.total_failures == 0
    assert len(alive) == 100
    assert sum(alive) >= 63


def test_t41_column_operations_match_the_dense_blocks():
    rng = random.Random(41)
    for _ in range(60):
        ring = _SCALAR_RINGS[rng.randrange(len(_SCALAR_RINGS))]
        n = rng.choice((1, 2, 3, 5))
        ctx = FormContext(n)
        lo = _unipotent(ring, n, False, rng)
        up = _unipotent(ring, n, True, rng)
        inv_t = unitriangular_inverse(lo.transpose()) @ unitriangular_inverse(up.transpose())
        assert _t41_matrix(ctx, ring, lo, up) == embed_blocks(ctx, ring, uu=lo @ up, vv=inv_t)


def test_l54_sides_match_the_dense_products():
    rng = random.Random(54)
    for _ in range(30):
        P = _POLY_RINGS[rng.randrange(len(_POLY_RINGS))]
        base = P.base
        n = rng.choice((2, 3, 4))
        ctx = FormContext(n)
        d0 = Scalar(base, base.from_int(rng.choice((1, -1))))
        core = Word(ctx, base, [GenLabel("DIAG", param=(d0, tuple(_unit(base, rng) for _ in range(n))))])
        beta0 = eval_word(random_word(ctx, base, rng, 6)) @ eval_word(core)
        lhs, rhs, corr = _l54_sides(ctx, P, beta0)
        _, a23, _, a33 = split_blocks(beta0, ctx)
        assert corr == a23.transpose() @ a33
        X, one = variable(P), Scalar(P, P.one)
        t = embed_blocks(ctx, P, uv=_constant_matrix_over(corr, P).scale(one - X))
        for j in range(n):
            border = base.mul(beta0.rows[0][0], beta0.rows[0][n + 1 + j])
            t.rows[0][n + 1 + j] = ((X - one) * Scalar(P, P.make([border]))).payload
        lifted = _constant_matrix_over(beta0, P)
        th = theta(ctx, P)
        assert lhs == th @ lifted
        assert rhs == lifted @ t @ th
