"""Canonical JSON wire format for every protocol artifact.

Documents are plain dicts with lowercase big-endian hex integers and sorted
keys; encoding the same object twice is byte-identical.  Parsing validates
the type invariants (points on their curves, orders, degrees, recomputed
codomains) and names the offending JSON path on failure.
"""

import json
import math

from .adaptor import AdaptedSignature, PreSignature
from .curve import (
    Curve,
    Point,
    _mul,
    has_exact_order,
    is_primitive_root_of_unity,
    weil_pairing,
)
from .errors import ConstraintViolation, InvariantViolation, ParseError, ProtocolError
from .field import Fp2
from .isogeny import EfficientRep, IsogenyChain, Step
from .nizk import NizkProof, NizkRound
from .orientation import Orientation, orientation_valid
from .params import ParamSet, _check_shape, base_curve, is_prime
from .relation import Statement, Witness, witness_chain
from .sig import KeyPair, PlainSignature


def encode(doc) -> bytes:
    """Canonical bytes: sorted keys, no spaces, trailing newline."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def loads(data: bytes):
    try:
        return json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"not a JSON document: {exc}") from exc


def _hex(n: int) -> str:
    return format(n, "x")


def _unhex(doc, path):
    """The integer whose canonical form (as _hex writes it) is doc."""
    if not isinstance(doc, str):
        raise ParseError(f"{path}: expected hex string")
    try:
        n = int(doc, 16)
    except ValueError as exc:
        raise ParseError(f"{path}: bad hex integer") from exc
    if n < 0 or _hex(n) != doc:
        raise ParseError(f"{path}: hex integer not in canonical form")
    return n


def _field(doc, key, path):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{path}: missing key {key!r}")
    return doc[key]


def _list(doc, key, path, length=None):
    raw = _field(doc, key, path)
    if not isinstance(raw, list) or length not in (None, len(raw)):
        want = "list" if length is None else f"list of {length}"
        raise ParseError(f"{path}.{key}: expected {want}")
    return raw


# -- field elements, points, curves -----------------------------------------


def fp2_doc(x: Fp2) -> dict:
    return {"c0": _hex(x.c0), "c1": _hex(x.c1)}


def parse_fp2(doc, p, path) -> Fp2:
    c0 = _unhex(_field(doc, "c0", path), f"{path}.c0")
    c1 = _unhex(_field(doc, "c1", path), f"{path}.c1")
    if c0 >= p or c1 >= p:
        raise InvariantViolation(path, "residue not reduced mod p")
    return Fp2(p, c0, c1)


def point_doc(P: Point) -> object:
    if P.is_inf:
        return "inf"
    return {"x": fp2_doc(P.x), "y": fp2_doc(P.y)}


def parse_point(doc, E: Curve, path) -> Point:
    if doc == "inf":
        return Point.infinity()
    P = Point(
        parse_fp2(_field(doc, "x", path), E.p, f"{path}.x"),
        parse_fp2(_field(doc, "y", path), E.p, f"{path}.y"),
    )
    if not E.on_curve(P):
        raise InvariantViolation(path, "point not on its curve")
    return P


def curve_doc(E: Curve) -> dict:
    return {"a": fp2_doc(E.a), "b": fp2_doc(E.b)}


def parse_curve(doc, p, path) -> Curve:
    a = parse_fp2(_field(doc, "a", path), p, f"{path}.a")
    b = parse_fp2(_field(doc, "b", path), p, f"{path}.b")
    try:
        return Curve(a, b)
    except ProtocolError as exc:
        raise InvariantViolation(path, f"singular curve: {exc}") from exc


# -- orientations -------------------------------------------------------------


def orientation_doc(o: Orientation) -> dict:
    return {
        "curve": curve_doc(o.curve),
        "pairs": [
            [_hex(ell), point_doc(G1), point_doc(G2)] for ell, G1, G2 in o.pairs
        ],
    }


def parse_orientation(doc, ps_p, group_order, path) -> Orientation:
    E = parse_curve(_field(doc, "curve", path), ps_p, f"{path}.curve")
    pairs = []
    for i, entry in enumerate(_list(doc, "pairs", path)):
        sub = f"{path}.pairs[{i}]"
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"{sub}: expected [ell, G1, G2]")
        ell = _unhex(entry[0], f"{sub}[0]")
        G1 = parse_point(entry[1], E, f"{sub}[1]")
        G2 = parse_point(entry[2], E, f"{sub}[2]")
        pairs.append((ell, G1, G2))
    o = Orientation(E, pairs)
    if not orientation_valid(o, group_order):
        raise InvariantViolation(path, "orientation generators invalid")
    return o


# -- parameter sets -----------------------------------------------------------


def params_doc(ps: ParamSet) -> dict:
    return {
        "p": _hex(ps.p),
        "a": _hex(ps.a),
        "primes": [_hex(ell) for ell in ps.primes],
        "c": _hex(ps.c),
        "f": _hex(ps.f),
        "d_tau": _hex(ps.d_tau),
        "d_phi": _hex(ps.d_phi),
        "e0": curve_doc(ps.e0),
        "orientation": orientation_doc(ps.orientation),
        "pq": [point_doc(ps.pq[0]), point_doc(ps.pq[1])],
        "nizk_rounds": _hex(ps.nizk_rounds),
    }


def parse_params(doc) -> ParamSet:
    path = "params"
    p = _unhex(_field(doc, "p", path), f"{path}.p")
    a = _unhex(_field(doc, "a", path), f"{path}.a")
    primes = tuple(
        _unhex(x, f"{path}.primes[{i}]")
        for i, x in enumerate(_list(doc, "primes", path))
    )
    c = _unhex(_field(doc, "c", path), f"{path}.c")
    f = _unhex(_field(doc, "f", path), f"{path}.f")
    d_tau = _unhex(_field(doc, "d_tau", path), f"{path}.d_tau")
    d_phi = _unhex(_field(doc, "d_phi", path), f"{path}.d_phi")
    k = _unhex(_field(doc, "nizk_rounds", path), f"{path}.nizk_rounds")
    try:
        A, B, C = _check_shape(a, primes, c, d_tau, d_phi, k)
    except ConstraintViolation as exc:
        raise InvariantViolation(path, str(exc)) from exc
    if p != A * B * C * f - 1:
        raise InvariantViolation(f"{path}.p", "p != ABCf - 1")
    if not is_prime(p) or p % 4 != 3:
        raise InvariantViolation(f"{path}.p", "p not a prime = 3 (mod 4)")
    e0 = parse_curve(_field(doc, "e0", path), p, f"{path}.e0")
    if e0 != base_curve(p):
        raise InvariantViolation(f"{path}.e0", "not the base curve y^2 = x^3 + x")
    orientation = parse_orientation(
        _field(doc, "orientation", path), p, p + 1, f"{path}.orientation"
    )
    pq_doc = _list(doc, "pq", path, 2)
    P = parse_point(pq_doc[0], e0, f"{path}.pq[0]")
    Q = parse_point(pq_doc[1], e0, f"{path}.pq[1]")
    for X, name in ((P, "pq[0]"), (Q, "pq[1]")):
        if not has_exact_order(e0, X, C):
            raise InvariantViolation(f"{path}.{name}", f"not of exact order {C}")
    if not is_primitive_root_of_unity(weil_pairing(e0, P, Q, C), C):
        raise InvariantViolation(f"{path}.pq", "pairing does not have exact order C")
    if orientation.curve != e0 or orientation.primes != primes:
        raise InvariantViolation(f"{path}.orientation", "not an orientation of e0")
    return ParamSet(p, a, primes, c, f, d_tau, d_phi, e0, orientation, (P, Q), k)


# -- chains, representations --------------------------------------------------


def chain_doc(chain: IsogenyChain) -> dict:
    return {
        "domain": curve_doc(chain.domain),
        "codomain": curve_doc(chain.codomain),
        "degree": _hex(chain.degree),
        "steps": [
            {"ell": _hex(s.ell), "kernel": point_doc(s.kernel), "u": fp2_doc(s.u)}
            for s in chain.steps
        ],
    }


def parse_chain(doc, p, path) -> IsogenyChain:
    domain = parse_curve(_field(doc, "domain", path), p, f"{path}.domain")
    codomain = parse_curve(_field(doc, "codomain", path), p, f"{path}.codomain")
    degree = _unhex(_field(doc, "degree", path), f"{path}.degree")
    steps = []
    cur = domain
    deg = 1
    for i, sdoc in enumerate(_list(doc, "steps", path)):
        sub = f"{path}.steps[{i}]"
        ell = _unhex(_field(sdoc, "ell", sub), f"{sub}.ell")
        K = parse_point(_field(sdoc, "kernel", sub), cur, f"{sub}.kernel")
        u = parse_fp2(_field(sdoc, "u", sub), p, f"{sub}.u")
        try:
            step = Step(cur, K, ell, u)
        except ProtocolError as exc:
            raise InvariantViolation(sub, f"invalid step: {exc}") from exc
        steps.append(step)
        cur = step.codomain
        deg *= ell
    if cur != codomain:
        raise InvariantViolation(f"{path}.codomain", "steps do not reach the codomain")
    if deg != degree:
        raise InvariantViolation(f"{path}.degree", "degree != product of step primes")
    return IsogenyChain(domain, codomain, steps, degree, None)


def rep_doc(rep: EfficientRep) -> dict:
    return {
        "domain": curve_doc(rep.domain),
        "codomain": curve_doc(rep.codomain),
        "degree": _hex(rep.degree),
        "order": _hex(rep.order),
        "basis": [point_doc(rep.basis[0]), point_doc(rep.basis[1])],
        "images": [point_doc(rep.images[0]), point_doc(rep.images[1])],
    }


def parse_rep(doc, p, group_order, path) -> EfficientRep:
    domain = parse_curve(_field(doc, "domain", path), p, f"{path}.domain")
    codomain = parse_curve(_field(doc, "codomain", path), p, f"{path}.codomain")
    degree = _unhex(_field(doc, "degree", path), f"{path}.degree")
    order = _unhex(_field(doc, "order", path), f"{path}.order")
    bdoc = _list(doc, "basis", path, 2)
    idoc = _list(doc, "images", path, 2)
    basis = tuple(
        parse_point(bdoc[i], domain, f"{path}.basis[{i}]") for i in range(2)
    )
    images = tuple(
        parse_point(idoc[i], codomain, f"{path}.images[{i}]") for i in range(2)
    )
    if order < 1 or group_order % order != 0:
        raise InvariantViolation(f"{path}.order", "order does not divide p+1")
    if degree < 1:
        raise InvariantViolation(f"{path}.degree", "degree must be positive")
    for i, X in enumerate(basis):
        if not has_exact_order(domain, X, order):
            raise InvariantViolation(f"{path}.basis[{i}]", "not of exact basis order")
    for i, X in enumerate(images):
        if not _mul(codomain, order, X).is_inf:
            raise InvariantViolation(f"{path}.images[{i}]", "not killed by the order")
    if math.gcd(degree, order) == 1:
        zb = weil_pairing(domain, basis[0], basis[1], order)
        zi = weil_pairing(codomain, images[0], images[1], order)
        if zi != zb**degree:
            raise InvariantViolation(f"{path}.images", "pairing law violated")
    return EfficientRep(domain, codomain, degree, order, basis, images)


# -- keys, witnesses, statements ----------------------------------------------


def keypair_doc(kp: KeyPair) -> dict:
    return {"sk": chain_doc(kp.sk), "pk": curve_doc(kp.pk)}


def parse_keypair(doc, ps: ParamSet) -> KeyPair:
    sk = parse_chain(_field(doc, "sk", "key"), ps.p, "key.sk")
    pk = parse_curve(_field(doc, "pk", "key"), ps.p, "key.pk")
    if sk.domain != ps.e0 or sk.degree != ps.d_tau:
        raise InvariantViolation("key.sk", "secret isogeny has the wrong shape")
    if sk.codomain != pk:
        raise InvariantViolation("key.pk", "pk is not the codomain of sk")
    return KeyPair(sk, pk)


def parse_pk(doc, ps: ParamSet) -> Curve:
    return parse_curve(_field(doc, "pk", "key"), ps.p, "key.pk")


def witness_doc(w: Witness) -> dict:
    return {"alpha": _hex(w.alpha)}


def parse_witness(doc, ps: ParamSet) -> Witness:
    alpha = _unhex(_field(doc, "alpha", "witness"), "witness.alpha")
    if alpha >= ps.C:
        raise InvariantViolation("witness.alpha", "alpha not reduced mod C")
    return Witness(alpha, witness_chain(ps, alpha))


def statement_doc(s: Statement) -> dict:
    return {"ew": curve_doc(s.ew), "orientation": orientation_doc(s.oriented_image)}


def parse_statement(doc, ps: ParamSet) -> Statement:
    ew = parse_curve(_field(doc, "ew", "statement"), ps.p, "statement.ew")
    o = parse_orientation(
        _field(doc, "orientation", "statement"), ps.p, ps.group_order, "statement.orientation"
    )
    if o.curve != ew:
        raise InvariantViolation(
            "statement.orientation", "orientation lives on a different curve"
        )
    if o.primes != ps.primes:
        raise InvariantViolation("statement.orientation", "wrong orientation primes")
    return Statement(ew, o)


# -- proofs and (pre-)signatures ----------------------------------------------


def proof_doc(proof: NizkProof) -> dict:
    rounds = []
    for r in proof.rounds:
        rd = {"f": curve_doc(r.f), "fp": curve_doc(r.fp), "tag": _hex(r.tag)}
        if r.tag == 0:
            rd["reveal"] = {"m": point_doc(r.reveal[0]), "mp": point_doc(r.reveal[1])}
        else:
            rd["reveal"] = {"gens": [point_doc(G) for G in r.reveal]}
        rounds.append(rd)
    return {"rounds": rounds}


def parse_proof(doc, ps: ParamSet, ew: Curve, e1: Curve, path) -> NizkProof:
    rounds = []
    raw = _list(doc, "rounds", path)
    if len(raw) != ps.nizk_rounds:
        raise InvariantViolation(f"{path}.rounds", "wrong round count")
    for i, rdoc in enumerate(raw):
        sub = f"{path}.rounds[{i}]"
        F = parse_curve(_field(rdoc, "f", sub), ps.p, f"{sub}.f")
        Fp_ = parse_curve(_field(rdoc, "fp", sub), ps.p, f"{sub}.fp")
        tag = _unhex(_field(rdoc, "tag", sub), f"{sub}.tag")
        rev = _field(rdoc, "reveal", sub)
        if tag == 0:
            reveal = (
                parse_point(_field(rev, "m", sub), ew, f"{sub}.reveal.m"),
                parse_point(_field(rev, "mp", sub), e1, f"{sub}.reveal.mp"),
            )
        elif tag == 1:
            reveal = tuple(
                parse_point(g, F, f"{sub}.reveal.gens[{j}]")
                for j, g in enumerate(_list(rev, "gens", f"{sub}.reveal"))
            )
        else:
            raise InvariantViolation(f"{sub}.tag", "reveal tag must be 0 or 1")
        rounds.append(NizkRound(F, Fp_, tag, reveal))
    return NizkProof(rounds)


def presig_doc(pre: PreSignature) -> dict:
    return {
        "e1": curve_doc(pre.e1),
        "proof": proof_doc(pre.proof),
        "epsi": curve_doc(pre.epsi),
        "s": [point_doc(pre.s[0]), point_doc(pre.s[1])],
        "rep": rep_doc(pre.rep_tilde),
    }


def parse_presig(doc, ps: ParamSet, s: Statement) -> PreSignature:
    path = "presignature"
    e1 = parse_curve(_field(doc, "e1", path), ps.p, f"{path}.e1")
    epsi = parse_curve(_field(doc, "epsi", path), ps.p, f"{path}.epsi")
    sdoc = _list(doc, "s", path, 2)
    S = tuple(parse_point(sdoc[i], epsi, f"{path}.s[{i}]") for i in range(2))
    for i, X in enumerate(S):
        if not has_exact_order(epsi, X, ps.C):
            raise InvariantViolation(f"{path}.s[{i}]", "not of exact order C")
    rep = parse_rep(_field(doc, "rep", path), ps.p, ps.group_order, f"{path}.rep")
    if rep.domain != epsi:
        raise InvariantViolation(f"{path}.rep.domain", "representation not on E_psi")
    proof = parse_proof(_field(doc, "proof", path), ps, s.ew, e1, f"{path}.proof")
    return PreSignature(e1, proof, epsi, S, rep)


def signature_doc(sig) -> dict:
    return {"e1": curve_doc(sig.e1), "rep": rep_doc(sig.rep)}


def parse_signature(doc, ps: ParamSet):
    """Signature from its document; the basis order tells plain from adapted."""
    path = "signature"
    e1 = parse_curve(_field(doc, "e1", path), ps.p, f"{path}.e1")
    rep = parse_rep(_field(doc, "rep", path), ps.p, ps.group_order, f"{path}.rep")
    if rep.domain != e1:
        raise InvariantViolation(f"{path}.rep.domain", "representation not on e1")
    if rep.order == ps.A * ps.C:
        return AdaptedSignature(e1, rep)
    return PlainSignature(e1, rep)
