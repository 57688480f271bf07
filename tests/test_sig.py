import itertools
import random

import pytest

from adaptorsig import isogeny, serial
from adaptorsig import sig as sig_mod
from adaptorsig.adaptor import presign, preverify
from adaptorsig.curve import Curve, canonical_torsion_basis, point_order
from adaptorsig.errors import IndexOutOfRange, NoBasis
from adaptorsig.field import Fp2
from adaptorsig.isogeny import EfficientRep, cyclic_parts
from adaptorsig.relation import gen_r
from adaptorsig.sig import (
    PlainSignature,
    challenge_walk,
    cyclic_kernel,
    hash_to_challenge_index,
    keygen,
    mu,
    rep_rejection,
    response_degree,
    sign,
    verify,
)


def test_mu_values():
    assert mu(3) == 4
    assert mu(9) == 12
    assert mu(27) == 36
    assert mu(128) == 192
    assert mu(35) == 48


def test_hash_mu_one(t0):
    j = t0.e0.j_invariant()
    assert hash_to_challenge_index(j, b"anything", 1) == 1


def test_hash_deterministic(t0):
    j = t0.e0.j_invariant()
    a = hash_to_challenge_index(j, b"msg", 12)
    b = hash_to_challenge_index(j, b"msg", 12)
    assert a == b and 1 <= a <= 12


def test_hash_uniform_over_12_buckets(t0):
    # chi-square style check: each bucket within 3 sigma of the mean
    j = t0.e0.j_invariant()
    n = 10_000
    counts = [0] * 12
    for i in range(n):
        h = hash_to_challenge_index(j, b"msg:%d" % i, 12)
        counts[h - 1] += 1
    mean = n / 12
    sigma = (n * (1 / 12) * (11 / 12)) ** 0.5
    for c in counts:
        assert abs(c - mean) <= 3 * sigma, counts


@pytest.mark.parametrize("D,expected", [(3, 4), (9, 12), (27, 36)])
def test_challenge_walks_distinct(t0, t1, t2, D, expected):
    ps = {3: t0, 9: t1, 27: t2}[D]
    E = ps.e0
    kernels = set()
    for h in range(1, mu(D) + 1):
        chain = challenge_walk(E, h, D)
        assert chain.degree == D
        # canonical fingerprint of the kernel subgroup: the set of x-keys of
        # all generator multiples of exact order D
        K = chain.kernel_gens[0]
        pts = set()
        R = K
        for _ in range(D - 1):
            pts.add(R.x.lex_key())
            R = E.add(R, K)
        kernels.add(frozenset(pts))
    assert len(kernels) == expected


@pytest.mark.parametrize("profile,ell", [("t0", 2), ("t1", 3)])
def test_cyclic_kernel_is_x_plus_t_y_of_its_parts(request, profile, ell):
    """cyclic_parts is the one home of the kernel index: for every index,
    cyclic_kernel is X + [t]Y of its parts, and the parts are (P, Q, idx - 1)
    up to D and (Q, [ell]P, idx - D - 1) above, on the canonical D-basis,
    at D = A (T0) and D = C = 9 (T1)."""
    ps = request.getfixturevalue(profile)
    E, D = ps.e0, (ps.A if ell == 2 else ps.C)
    P, Q = canonical_torsion_basis(E, D, E.p + 1)
    for idx in range(1, mu(D) + 1):
        ((X, Y, t),) = cyclic_parts(E, D, [idx])
        if idx <= D:
            assert (X, Y, t) == (P, Q, idx - 1)
        else:
            assert (X, Y, t) == (Q, E.mul(ell, P), idx - D - 1)
        assert cyclic_kernel(E, D, [idx]) == [E.add(X, E.mul(t, Y))]


def test_challenge_walk_index_bounds(t0):
    with pytest.raises(IndexOutOfRange):
        challenge_walk(t0.e0, 0, 3)
    with pytest.raises(IndexOutOfRange):
        challenge_walk(t0.e0, mu(3) + 1, 3)
    with pytest.raises(IndexOutOfRange):
        challenge_walk(t0.e0, 1, 35)  # not a prime power


def test_keygen_deterministic(t0):
    a = keygen(t0, random.Random(5))
    b = keygen(t0, random.Random(5))
    assert a.pk == b.pk
    assert a.sk.degree == 35 == t0.d_tau


def test_keygen_pk_group_order(t0, rng):
    kp = keygen(t0, rng)
    n = t0.group_order
    for _ in range(20):
        P = kp.pk.random_point(rng)
        assert n % point_order(kp.pk, P, n) == 0


def test_sign_verify_roundtrip_100_pairs(t0, rng):
    for i in range(100):
        kp = keygen(t0, rng)
        m = b"message %d" % i
        s = sign(kp, m, t0, rng)
        assert s.rep.degree == response_degree(t0)
        assert verify(kp.pk, m, s, "light", t0)
    assert verify(kp.pk, m, s, "strict", t0)


def test_sign_carries_an_e0_basis_point_into_each_dual(t0, monkeypatch):
    """sign's dual(psi0) takes each dual kernel from the canonical
    E0[ell]-basis point outside psi0's kernel, V for an index up to ell and
    U for ell + 1: 8 signatures under one key scan no basis (_dual_kernel),
    where scanning every step's domain made 16 scans, and for every index
    vector the signature is the one the scanning rule gives."""
    kp = keygen(t0, random.Random(43))
    scans = []
    dual_kernel = isogeny._dual_kernel
    monkeypatch.setattr(isogeny, "_dual_kernel", lambda s: scans.append(s.ell) or dual_kernel(s))
    for i in range(8):
        sign(kp, b"m%d" % i, t0, random.Random(i))
    assert scans == []
    carrying = sig_mod.dual
    monkeypatch.setattr(sig_mod, "dual", lambda chain, carried=None: carrying(chain))
    for i in range(8):
        sign(kp, b"m%d" % i, t0, random.Random(i))
    assert len(scans) == 16
    vectors = list(itertools.product(range(1, mu(5) + 1), range(1, mu(7) + 1)))
    docs = []
    for dual in (carrying, lambda chain, carried=None: carrying(chain)):
        drawn = iter(vectors)
        monkeypatch.setattr(sig_mod, "_random_indices", lambda degree, rng: list(next(drawn)))
        monkeypatch.setattr(sig_mod, "dual", dual)
        docs.append([serial.signature_doc(sign(kp, b"v", t0, None)) for _ in vectors])
    assert len(scans) == 16 + len(vectors) * 2
    assert docs[0] == docs[1]


def test_response_degree_odd(t0, t1, t2):
    # gcd(deg sigma, A) = 1 holds for every signature by construction
    for ps in (t0, t1, t2):
        assert response_degree(ps) % 2 == 1
        assert (response_degree(ps) * ps.C) % 2 == 1


def test_sign_degree_at_t1(t1, rng):
    kp = keygen(t1, rng)
    s = sign(kp, b"t1 message", t1, rng)
    assert s.rep.degree == 35 * 35 * 9 == 11025
    assert verify(kp.pk, b"t1 message", s, "light", t1)


def test_tampered_message_rejected(t0, rng):
    kp = keygen(t0, rng)
    s = sign(kp, b"original", t0, rng)
    assert not verify(kp.pk, b"0riginal", s, "light", t0)


def test_replay_under_other_pk_rejected(t0, rng):
    kp1 = keygen(t0, random.Random(1))
    kp2 = keygen(t0, random.Random(2))
    assert kp1.pk != kp2.pk
    s = sign(kp1, b"msg", t0, rng)
    assert not verify(kp2.pk, b"msg", s, "light", t0)


def test_random_image_tampering_rejected(t0, rng):
    kp = keygen(t0, rng)
    s = sign(kp, b"msg", t0, rng)
    rep = s.rep
    E2 = rep.codomain
    PA, QA = canonical_torsion_basis(E2, t0.A, t0.group_order)
    hits = 0
    for _ in range(20):
        x, y = rng.randrange(t0.A), rng.randrange(t0.A)
        fake = EfficientRep(
            rep.domain,
            rep.codomain,
            rep.degree,
            rep.order,
            rep.basis,
            (E2.add(E2.mul(x, PA), E2.mul(y, QA)), rep.images[1]),
        )
        if verify(kp.pk, b"msg", PlainSignature(s.e1, fake), "light", t0):
            hits += 1
    # pairing mismatch rejects random tampering with prob >= 1 - 1/A
    assert hits <= 1


def test_strict_rejects_pairing_consistent_forgery(t0, rng):
    # negating a single image flips the pairing; negating both preserves it
    # but also preserves the represented isogeny, so build a forgery by
    # scaling both images by the same unit: pairing gains exponent u^2 != 1
    kp = keygen(t0, rng)
    s = sign(kp, b"msg", t0, rng)
    rep = s.rep
    E2 = rep.codomain
    # swap the two images: pairing value inverts, light check already fails
    fake = EfficientRep(
        rep.domain, rep.codomain, rep.degree, rep.order, rep.basis,
        (rep.images[1], rep.images[0]),
    )
    assert not verify(kp.pk, b"msg", PlainSignature(s.e1, fake), "light", t0)


def test_rep_rejection_names_the_failed_check(t0):
    kp = keygen(t0, random.Random(11))
    rep = sign(kp, b"tags", t0, random.Random(12)).rep
    shapes = {t0.A: response_degree(t0)}
    n = t0.group_order
    assert rep_rejection(rep, shapes) is None

    def tampered(**kw):
        fields = dict(
            domain=rep.domain,
            codomain=rep.codomain,
            degree=rep.degree,
            order=rep.order,
            basis=rep.basis,
            images=rep.images,
        )
        fields.update(kw)
        return EfficientRep(**fields)

    E2 = rep.codomain
    assert rep_rejection(tampered(degree=rep.degree + 2), shapes) == "rep:shape"
    assert rep_rejection(tampered(order=t0.A * t0.C), shapes) == "rep:shape"
    swapped = (rep.basis[1], rep.basis[0])
    assert rep_rejection(tampered(basis=swapped), shapes) == "rep:basis"
    X, Y = canonical_torsion_basis(E2, t0.A * t0.C, n)
    assert rep_rejection(tampered(images=(X, Y)), shapes) == "rep:images"
    flipped = (rep.images[1], rep.images[0])
    assert rep_rejection(tampered(images=flipped), shapes) == "rep:pairing"


def test_basis_scan_failure_rejects_as_rep_basis(t0, monkeypatch):
    rng = random.Random(13)
    kp = keygen(t0, rng)
    w, s = gen_r(t0, rng)
    pre = presign(kp, b"scan", s, t0, rng)
    plain = sign(kp, b"scan", t0, rng)
    real = sig_mod.canonical_torsion_basis

    def scan(E, N, group_order):
        if N % t0.A == 0:  # the response bases, not the challenge basis
            raise NoBasis("scan exhausted")
        return real(E, N, group_order)

    monkeypatch.setattr(sig_mod, "canonical_torsion_basis", scan)
    reasons = []
    assert not preverify(kp.pk, b"scan", s, pre, "light", t0, reasons)
    assert reasons == ["rep:basis"]
    assert not verify(kp.pk, b"scan", plain, "light", t0)


def test_ordinary_curves_reject_without_a_traceback(t0):
    # y^2 = x^3 + x + 1 over GF(p^2) is ordinary: its group exponent does not
    # divide p+1, so the basis scan meets a point it cannot clear
    p = t0.e0.p
    E = Curve(Fp2(p, 1, 0), Fp2(p, 1, 0))
    assert not E.mul(t0.group_order, next(E.scan_points())).is_inf
    with pytest.raises(NoBasis):
        canonical_torsion_basis(E, t0.d_phi, t0.group_order)
    kp = keygen(t0, random.Random(18))
    s = sign(kp, b"m", t0, random.Random(19))
    for mode in ("light", "strict"):
        reasons = []
        assert not verify(E, b"m", s, mode, t0, reasons)
        assert reasons == ["challenge"]
    # an ordinary commitment curve reaches the basis check of the response
    phi = sig_mod.challenge(kp.pk, E, b"m", t0)
    r = s.rep
    rep = EfficientRep(E, phi.codomain, r.degree, r.order, r.basis, r.images)
    reasons = []
    assert not verify(kp.pk, b"m", PlainSignature(E, rep), "light", t0, reasons)
    assert reasons == ["rep:basis"]


def test_verify_surfaces_programming_errors(t0):
    kp = keygen(t0, random.Random(14))
    sig = sign(kp, b"m", t0, random.Random(15))
    with pytest.raises(AttributeError):
        verify(None, b"m", sig, "light", t0)


def test_strict_rejects_a_forgery_that_passes_light(t0, forge):
    kp = keygen(t0, random.Random(16))
    s = sign(kp, b"forged", t0, random.Random(17))
    fake = PlainSignature(s.e1, forge(s.rep, t0))
    assert verify(kp.pk, b"forged", fake, "light", t0)
    assert not verify(kp.pk, b"forged", fake, "strict", t0)


@pytest.mark.parametrize("profile", ["t1", "t2"])
def test_strict_verify_at_the_larger_profiles(request, profile, forge):
    # the single-run inputs of the ROADMAP timings
    ps = request.getfixturevalue(profile)
    rng = random.Random(1)
    kp = keygen(ps, rng)
    s = sign(kp, b"msg", ps, rng)
    assert verify(kp.pk, b"msg", s, "strict", ps)
    fake = PlainSignature(s.e1, forge(s.rep, ps))
    assert verify(kp.pk, b"msg", fake, "light", ps)
    assert not verify(kp.pk, b"msg", fake, "strict", ps)


def test_unknown_mode_raises(t0):
    rng = random.Random(18)
    kp = keygen(t0, rng)
    w, s = gen_r(t0, rng)
    pre = presign(kp, b"mode", s, t0, rng)
    plain = sign(kp, b"mode", t0, rng)
    with pytest.raises(ValueError):
        verify(kp.pk, b"mode", plain, "bogus", t0)
    with pytest.raises(ValueError):
        preverify(kp.pk, b"mode", s, pre, "bogus", t0)
