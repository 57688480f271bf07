import dataclasses

from adaptorsig.orientation import Orientation, orientation_image
from adaptorsig.relation import (
    Statement,
    Witness,
    gen_r,
    verify_relation,
    witness_chain,
)


def test_alpha_zero_boundary(t0):
    w = Witness(0)
    chain = witness_chain(t0, w.alpha)
    s = Statement(chain.codomain, orientation_image(chain, t0.orientation))
    assert verify_relation(w, s, t0)


def test_gen_r_roundtrip(t0, rng):
    for _ in range(10):
        w, s = gen_r(t0, rng)
        assert 0 <= w.alpha < t0.C
        assert witness_chain(t0, w.alpha).degree == t0.C
        assert verify_relation(w, s, t0)


def test_distinct_alpha_statements_mostly_distinct(t0):
    fingerprints = []
    for alpha in range(t0.C):
        chain = witness_chain(t0, alpha)
        img = orientation_image(chain, t0.orientation)
        fp = (
            chain.codomain.j_invariant().lex_key(),
            tuple(
                (G1.x.lex_key(), G2.x.lex_key()) for _, G1, G2 in img.pairs
            ),
        )
        fingerprints.append(fp)
    assert len(set(fingerprints)) >= t0.C - 1


def test_wrong_alpha_rejected(t0, rng):
    w, s = gen_r(t0, rng)
    bad = Witness((w.alpha + 1) % t0.C)
    assert not verify_relation(bad, s, t0)


def test_doubled_orientation_generator_rejected(t0, rng):
    w, s = gen_r(t0, rng)
    ell, G1, G2 = s.oriented_image.pairs[0]
    E = s.ew
    mutated = Orientation(
        E, [(ell, E.mul(2, G1), G2)] + s.oriented_image.pairs[1:]
    )
    bad = Statement(s.ew, mutated)
    # <2*G1> = <G1>, so this only trips the literal-point comparison
    assert not verify_relation(w, bad, t0)


def test_exhaustive_alpha_roundtrip(t0, t1):
    for ps in (t0, t1):
        for alpha in range(ps.C):
            w = Witness(alpha)
            chain = witness_chain(ps, w.alpha)
            s = Statement(chain.codomain, orientation_image(chain, ps.orientation))
            assert verify_relation(w, s, ps)


def test_every_rejection_tag_is_reached(t0, rng):
    w, s = gen_r(t0, rng)

    def tags(w, s, ps=t0):
        reasons = []
        assert not verify_relation(w, s, ps, reasons)
        return reasons

    reasons = []
    assert verify_relation(w, s, t0, reasons) and reasons == []
    P, _ = t0.pq
    degenerate = dataclasses.replace(t0, pq=(P, P))  # P + [C-1]P = O spans nothing
    assert tags(Witness(t0.C - 1), s, degenerate) == ["relation:witness"]
    fewer = Orientation(s.ew, s.oriented_image.pairs[:1])
    assert tags(w, Statement(s.ew, fewer)) == ["relation:primes"]
    assert tags(Witness((w.alpha + 1) % t0.C), s) == ["relation:image"]
