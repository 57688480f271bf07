import random

import pytest

from adaptorsig import field
from adaptorsig.field import Fp2, cube_roots, sqrt_pair
from adaptorsig.params import generate_params

P = 26879  # T0 modulus


def rand_elt(rng, p=P):
    return Fp2(p, rng.randrange(p), rng.randrange(p))


def test_inverse_of_two_matches_extended_gcd():
    # independent oracle: extended Euclid on the integers
    def egcd(a, b):
        if b == 0:
            return a, 1, 0
        g, x, y = egcd(b, a % b)
        return g, y, x - (a // b) * y

    g, x, _ = egcd(2, P)
    assert g == 1
    r = x % P
    assert 2 * r % P == 1
    inv2 = Fp2(P, 2).inv()
    assert inv2 == Fp2(P, r)


def test_mul_inv_roundtrip():
    rng = random.Random(1)
    for _ in range(300):
        x = rand_elt(rng)
        if x.is_zero():
            continue
        assert x * x.inv() == Fp2.one(P)


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Fp2.zero(P).inv()


def test_frobenius_involution():
    rng = random.Random(2)
    for _ in range(200):
        x = rand_elt(rng)
        assert x.frobenius().frobenius() == x


def test_field_order():
    rng = random.Random(3)
    for _ in range(100):
        x = rand_elt(rng)
        assert x ** (P * P) == x


def test_ring_axioms_random_triples():
    rng = random.Random(4)
    for _ in range(1000):
        x, y, z = rand_elt(rng), rand_elt(rng), rand_elt(rng)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_sqrt_of_one():
    assert Fp2.one(P).sqrt() == Fp2.one(P)


def test_sqrt_roundtrip_canonical():
    rng = random.Random(5)
    for _ in range(300):
        r = rand_elt(rng)
        s = (r * r).sqrt()
        assert s is not None
        assert s == r or s == -r
        # canonical: lexicographically no larger than its negation
        assert s.lex_key() <= (-s).lex_key()


def ref_sqrt(x):
    """The canonical square root on Fp2 objects: a GF(p) element's root is
    real or imaginary, else u^2 = (c0 +- sqrt(norm))/2 and v = c1/(2u), each
    root checked by squaring, the smaller of +-r by lex_key."""
    p = x.p

    def lex_min(r):
        return r if r.lex_key() <= (-r).lex_key() else -r

    if x.is_zero():
        return Fp2.zero(p)
    if x.c1 == 0:
        s = pow(x.c0, (p + 1) // 4, p)
        if s * s % p == x.c0:
            return lex_min(Fp2(p, s, 0))
        t = pow(p - x.c0, (p + 1) // 4, p)
        if t * t % p == p - x.c0:
            return lex_min(Fp2(p, 0, t))
        return None
    n = (x.c0 * x.c0 + x.c1 * x.c1) % p
    s = pow(n, (p + 1) // 4, p)
    if s * s % p != n:
        return None
    inv2 = pow(2, p - 2, p)
    for sign in (s, p - s):
        u2 = (x.c0 + sign) * inv2 % p
        u = pow(u2, (p + 1) // 4, p)
        if u * u % p != u2 or u == 0:
            continue
        r = Fp2(p, u, x.c1 * pow(2 * u, p - 2, p))
        if r * r == x:
            return lex_min(r)
    return None


@pytest.mark.parametrize("profile", ["t0", "t1", "t2"])
def test_sqrt_pair_matches_the_fp2_reference(request, profile):
    p = request.getfixturevalue(profile).p
    rng = random.Random(p)
    xs = [Fp2(p, 0, 0), Fp2(p, 1, 0), Fp2(p, p - 1, 0), Fp2(p, 0, 1), Fp2(p, 0, p - 1)]
    for _ in range(300):
        c = rng.randrange(1, p)
        xs += [Fp2(p, c, 0), Fp2(p, 0, c), rand_elt(rng, p)]  # the c1 = 0 and c0 = 0 lines
        r = rand_elt(rng, p)
        xs.append(r * r)
    misses = 0
    for x in xs:
        want = ref_sqrt(x)
        got = sqrt_pair(p, x.c0, x.c1)
        assert got == (None if want is None else want.lex_key())
        assert x.sqrt() == want
        misses += want is None
    assert misses > 100  # about half of the random elements are non-squares


def test_first_nonsquare_has_no_root():
    # exhaustive scan in lexicographic order for a quadratic non-residue
    e = (P * P - 1) // 2
    found = None
    for c0 in range(P):
        for c1 in range(P):
            x = Fp2(P, c0, c1)
            if x.is_zero():
                continue
            if x**e != Fp2.one(P):
                found = x
                break
        if found:
            break
    assert found is not None
    assert found.sqrt() is None


def test_cube_roots():
    rng = random.Random(6)
    seen_nonzero = 0
    for _ in range(50):
        x = rand_elt(rng)
        c = x * x * x
        roots = cube_roots(c)
        assert x in roots
        assert all(r * r * r == c for r in roots)
        if not c.is_zero():
            seen_nonzero += 1
            assert len(roots) == 3  # 3 | p+1, so mu_3 lies in GF(p^2)
    assert seen_nonzero > 0


@pytest.mark.parametrize(
    "spec, tried",
    [
        ("T0", 3),
        ("T1", 3),
        ("T2", 5),
        ((40, (5, 7), 1, 35, 3, 2), 3),
        ((70, (5, 7), 1, 35, 3, 2), 10),
    ],
)
def test_mu_power_group_scan_stops_at_the_first_non_cube(monkeypatch, spec, tried):
    p = generate_params(spec, random.Random(0)).p
    n = p * p - 1
    s = 0
    while (p + 1) % 3 ** (s + 1) == 0:
        s += 1
    co = n // 3**s
    powers = []
    power = Fp2.__pow__
    monkeypatch.setattr(Fp2, "__pow__", lambda x, e: powers.append(e) or power(x, e))
    mu = field._mu_power_group(p, 3, s)
    assert powers.count(co) == tried
    monkeypatch.undo()
    assert len(set(mu)) == 3**s and all(z ** (3**s) == Fp2.one(p) for z in mu)
    # the scan reads 1, 1 + i, 1 + 2i, ...: every element but the last is a cube
    scanned = [Fp2(p, 1, c1) ** (n // 3) for c1 in range(tried)]
    assert [z.is_one() for z in scanned] == [True] * (tried - 1) + [False]
