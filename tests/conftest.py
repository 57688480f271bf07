import random

import pytest

from adaptorsig import curve, isogeny, nizk
from adaptorsig.isogeny import EfficientRep, Step
from adaptorsig.params import generate_params


@pytest.fixture(autouse=True)
def cold_corner_memo():
    """Each test starts with the NIZK's corner memo empty, so what it walks
    and counts does not depend on the tests that ran before it."""
    nizk._CORNERS.clear()


@pytest.fixture(scope="session")
def t0():
    return generate_params("T0", random.Random(0))


@pytest.fixture(scope="session")
def t1():
    return generate_params("T1", random.Random(0))


@pytest.fixture(scope="session")
def t2():
    return generate_params("T2", random.Random(0))


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)


def _forge_rep(rep, ps):
    """`rep` with both images scaled by k = 1 (mod C), k = 1 + A/2 (mod A).

    k^2 = 1 modulo the basis order, so the images keep the pairing law and
    pass every light check, but no isogeny of the stated degree has them.
    """
    A, C = ps.A, ps.C
    k = next(x for x in range(1 + A // 2, A * C, A) if x % C == 1)
    images = tuple(rep.codomain.mul(k, T) for T in rep.images)
    assert images != tuple(rep.images)
    return EfficientRep(rep.domain, rep.codomain, rep.degree, rep.order, rep.basis, images)


@pytest.fixture()
def forge():
    return _forge_rep


def _count_chain_work(monkeypatch):
    """Lists that record each _chord of two finite points, each Step.image
    and the prime of each Step construction from here on, while
    monkeypatch holds."""
    adds, evals, steps = [], [], []
    chord, image, init = curve._chord, Step.image, Step.__init__

    def counted_chord(p, a0, a1, P, Q):
        if not (P is None or Q is None):
            adds.append(1)
        return chord(p, a0, a1, P, Q)

    monkeypatch.setattr(curve, "_chord", counted_chord)
    monkeypatch.setattr(isogeny, "_chord", counted_chord)
    monkeypatch.setattr(Step, "image", lambda self, P: evals.append(1) or image(self, P))
    monkeypatch.setattr(Step, "__init__", lambda self, *a: steps.append(a[2]) or init(self, *a))
    return adds, evals, steps


@pytest.fixture()
def count_chain_work():
    return _count_chain_work
