"""Arithmetic in GF(p^2) = GF(p)[i] / (i^2 + 1).

The modulus i^2 = -1 is irreducible exactly when p = 3 (mod 4), which every
parameter set guarantees.  Elements are kept in canonical reduced form
c0 + c1*i with 0 <= c0, c1 < p.

Fp2 is the type of the public API and the wire; the hot formulas of curve,
isogeny and dlog run on the int pairs (c0, c1), inverted by inv_pair and
batch_inv.
"""


class Fp2:
    __slots__ = ("p", "c0", "c1")

    def __init__(self, p: int, c0: int = 0, c1: int = 0):
        self.p = p
        self.c0 = c0 % p
        self.c1 = c1 % p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p):
        return cls(p, 0, 0)

    @classmethod
    def one(cls, p):
        return cls(p, 1, 0)

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return self.c0 == 0 and self.c1 == 0

    def is_one(self):
        return self.c0 == 1 and self.c1 == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, Fp2)
            and self.p == other.p
            and self.c0 == other.c0
            and self.c1 == other.c1
        )

    def __hash__(self):
        return hash((self.p, self.c0, self.c1))

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        return Fp2(self.p, self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other):
        return Fp2(self.p, self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self):
        return Fp2(self.p, -self.c0, -self.c1)

    def __mul__(self, other):
        if isinstance(other, int):
            return Fp2(self.p, self.c0 * other, self.c1 * other)
        a0, a1, b0, b1 = self.c0, self.c1, other.c0, other.c1
        return Fp2(self.p, a0 * b0 - a1 * b1, a0 * b1 + a1 * b0)

    __rmul__ = __mul__

    def inv(self):
        return Fp2(self.p, *inv_pair(self.p, self.c0, self.c1))

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        r = Fp2.one(self.p)
        b = self
        while e:
            if e & 1:
                r = r * b
            e >>= 1
            if e:
                b = b * b
        return r

    def frobenius(self):
        """x -> x^p, i.e. conjugation c0 - c1*i."""
        return Fp2(self.p, self.c0, -self.c1)

    # -- square roots ----------------------------------------------------

    def sqrt(self):
        """Canonical square root (see sqrt_pair), or None for a non-square."""
        r = sqrt_pair(self.p, self.c0, self.c1)
        return None if r is None else Fp2(self.p, *r)

    # -- misc -------------------------------------------------------------

    def lex_key(self):
        return (self.c0, self.c1)

    def __repr__(self):
        return f"Fp2({self.c0}, {self.c1})"


def fp2_bytes(x: Fp2) -> bytes:
    """c0 || c1, each big-endian in the byte length of p."""
    w = (x.p.bit_length() + 7) // 8
    return x.c0.to_bytes(w, "big") + x.c1.to_bytes(w, "big")


def inv_pair(p, c0, c1):
    """(c0 + c1*i)^-1 as a reduced pair of ints: (c0 - c1*i) / (c0^2 + c1^2).

    The norm c0^2 + c1^2 vanishes only at zero, because -1 is a non-square
    mod p, so one inversion in GF(p) does it.
    """
    n = (c0 * c0 + c1 * c1) % p
    if n == 0:
        raise ZeroDivisionError("inverse of zero in GF(p^2)")
    n = pow(n, -1, p)
    return c0 * n % p, -c1 * n % p


def sqrt_pair(p, c0, c1):
    """The square root of c0 + c1*i as a reduced pair of ints, or None.

    Of the two roots +-r the one with the lexicographically smaller (c0, c1)
    pair is returned, so the choice is deterministic.  With p = 3 (mod 4) a
    GF(p) square root is one pow.  An element of GF(p) is a square in GF(p^2):
    its root is real or purely imaginary.  Otherwise the norm of a square is a
    square s^2 mod p, and (u + v i)^2 = c0 + c1 i has u^2 = (c0 + s)/2 for
    one sign of s and v = c1 / (2u).
    """
    c0, c1 = c0 % p, c1 % p
    e = (p + 1) // 4
    if c1 == 0:
        s = pow(c0, e, p)
        if s * s % p == c0:
            return min(s, p - s), 0
        t = pow(p - c0, e, p)
        return 0, min(t, p - t)
    n = (c0 * c0 + c1 * c1) % p
    s = pow(n, e, p)
    if s * s % p != n:
        return None
    half = (p + 1) // 2  # the inverse of 2
    for sign in (s, p - s):
        u2 = (c0 + sign) * half % p
        u = pow(u2, e, p)
        if u and u * u % p == u2:
            v = c1 * pow(2 * u, -1, p) % p
            return (u, v) if u < p - u else (p - u, -v % p)
    return None  # pragma: no cover  (a norm square has one sign that works)


def batch_inv(p, xs):
    """Inverses of the nonzero pairs xs = [(c0, c1), ...] with one inversion.

    1/x = conj(x) / N(x), so Montgomery's trick runs on the integer norms:
    one inversion of their product, then each norm's inverse peeled off with
    the prefix products.
    """
    norms = [(c0 * c0 + c1 * c1) % p for c0, c1 in xs]
    prefix = [1]
    for n in norms:
        prefix.append(prefix[-1] * n % p)
    inv = inv_pair(p, prefix[-1], 0)[0]
    out = [None] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        ninv = inv * prefix[i] % p
        inv = inv * norms[i] % p
        c0, c1 = xs[i]
        out[i] = (c0 * ninv % p, -c1 * ninv % p)
    return out


def cube_roots(x: Fp2):
    """All cube roots of x in GF(p^2), in canonical (c0, c1) order.

    The 3-Sylow subgroup of GF(p^2)* has order 3^s with s = v3(p+1), which
    is tiny for every parameter set, so the fix-up factor is found by scan.
    """
    p = x.p
    n = p * p - 1
    s = 0
    m = n
    while m % 3 == 0:
        m //= 3
        s += 1
    if x.is_zero():
        return [Fp2.zero(p)]
    if s == 0:
        r = x ** pow(3, -1, n)
        return [r] if r * r * r == x else []
    # candidate root from the prime-to-3 part, then rotate by mu_{3^s}
    d = pow(3, -1, m)
    r0 = x ** d
    mu = _mu_power_group(p, 3, s)
    roots = [r0 * z for z in mu if (r0 * z) ** 3 == x]
    roots.sort(key=Fp2.lex_key)
    return roots


def _mu_power_group(p, ell, s):
    """All elements of order dividing ell^s in GF(p^2)*.  The scan stops at
    the first field element that is not an ell-th power (for cube_roots, not
    a cube)."""
    n = p * p - 1
    co = n // (ell**s)
    # scan field elements until a generator of the full ell^s-subgroup shows up
    one = Fp2.one(p)
    c0 = 0
    while True:
        c0 += 1
        for c1 in range(0, p):
            g = Fp2(p, c0, c1) ** co
            if g ** (ell ** (s - 1)) != one:
                out = []
                z = one
                for _ in range(ell**s):
                    out.append(z)
                    z = z * g
                return out
