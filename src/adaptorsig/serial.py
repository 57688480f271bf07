"""Canonical JSON wire format for every protocol artifact.

Documents are plain dicts with lowercase big-endian hex integers and sorted
keys; encoding the same object twice is byte-identical.  Parsing validates
the type invariants (points on curves, index ranges, recomputed codomains)
and names the offending JSON path on failure.  A response's images and a
pre-signature's S run the verifiers' own checks, `sig.rep_rejection` and
`adaptor.s_rejection`, and a failure names their tag.
"""

import json
from dataclasses import replace

from .adaptor import AdaptedSignature, PreSignature, presignature_shapes, s_rejection
from .curve import Curve, Point, canonical_torsion_basis, factorize
from .errors import InvariantViolation, ParseError, ProtocolError
from .field import Fp2
from .isogeny import EfficientRep, mu
from .nizk import NizkProof, NizkRound
from .orientation import Orientation, orientation_valid
from .params import (
    BASIS_RULE,
    E0_RULE,
    P_RULES,
    SHAPE_RULES,
    SIZE_RULES,
    ParamSet,
    failed_rule,
)
from .relation import Statement, Witness
from .sig import KeyPair, PlainSignature, rep_rejection, signature_shapes


def encode(doc) -> bytes:
    """Canonical bytes: sorted keys, no spaces, trailing newline."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def loads(data: bytes):
    # bad UTF-8, bad JSON and an integer past the int-string digit limit
    # raise ValueError, and deep nesting raises RecursionError
    try:
        return json.loads(data.decode())
    except (ValueError, RecursionError) as exc:
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


def parse_orientation(doc, curve, primes, path) -> Orientation:
    """Decode an orientation that must live on `curve` and use `primes`, in
    order; both are checked before the order scans of orientation_valid."""
    E = parse_curve(_field(doc, "curve", path), curve.p, f"{path}.curve")
    if E != curve:
        raise InvariantViolation(path, "orientation lives on a different curve")
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
    if o.primes != primes:
        raise InvariantViolation(path, "wrong orientation primes")
    if not orientation_valid(o):
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


def _require(ps, path, *rules):
    failed = failed_rule(ps, rules)
    if failed is not None:
        raise InvariantViolation(path, f"violates {failed}")


def parse_params(doc) -> ParamSet:
    """Decode a parameter set, running the rules of `params` as its parts
    arrive: size and the p bound, shape and p before any curve is parsed."""
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
    ps = ParamSet(p, a, primes, c, f, d_tau, d_phi, None, None, None, k)
    _require(ps, f"{path}.p", *SIZE_RULES)
    _require(ps, path, *SHAPE_RULES)
    _require(ps, f"{path}.p", *P_RULES)
    ps = replace(ps, e0=parse_curve(_field(doc, "e0", path), p, f"{path}.e0"))
    _require(ps, f"{path}.e0", E0_RULE)
    orientation = parse_orientation(
        _field(doc, "orientation", path), ps.e0, primes, f"{path}.orientation"
    )
    pq_doc = _list(doc, "pq", path, 2)
    pq = tuple(parse_point(pq_doc[i], ps.e0, f"{path}.pq[{i}]") for i in range(2))
    ps = replace(ps, orientation=orientation, pq=pq)
    _require(ps, f"{path}.pq", BASIS_RULE)
    return ps


# -- representations ---------------------------------------------------------


def rep_doc(rep: EfficientRep) -> dict:
    return {
        "codomain": curve_doc(rep.codomain),
        "order": _hex(rep.order),
        "images": [point_doc(rep.images[0]), point_doc(rep.images[1])],
    }


def parse_rep(doc, domain: Curve, shapes: dict, path) -> EfficientRep:
    """A response from `domain` sent as codomain, order and images; `shapes`
    maps each admissible order to its degree, the basis is the canonical one.
    The images must then pass `sig.rep_rejection`, as in the verifiers."""
    codomain = parse_curve(_field(doc, "codomain", path), domain.p, f"{path}.codomain")
    order = _unhex(_field(doc, "order", path), f"{path}.order")
    idoc = _list(doc, "images", path, 2)
    images = tuple(parse_point(idoc[i], codomain, f"{path}.images[{i}]") for i in range(2))
    if order not in shapes:
        raise InvariantViolation(f"{path}.order", "order not admitted by the document")
    try:
        basis = canonical_torsion_basis(domain, order, domain.p + 1)
    except ProtocolError as exc:
        raise InvariantViolation(path, f"no canonical basis: {exc}") from exc
    rep = EfficientRep(domain, codomain, shapes[order], order, basis, images)
    tag = rep_rejection(rep, shapes)
    if tag is not None:
        raise InvariantViolation(f"{path}.images", f"fails {tag}")
    return rep


# -- keys, witnesses, statements ----------------------------------------------


def keypair_doc(kp: KeyPair) -> dict:
    return {"pk": curve_doc(kp.pk), "sk": [_hex(i) for i in kp.indices]}


def parse_keypair(doc, ps: ParamSet) -> KeyPair:
    """A key pair from its secret kernel indices, one per prime power of
    D_tau (factorize order), each in [1, mu(ell^e)] before any isogeny is
    built; pk must be the codomain of the rebuilt sk."""
    fac = factorize(ps.d_tau).items()
    raw = _list(doc, "sk", "key", len(fac))
    indices = []
    for i, ((ell, e), x) in enumerate(zip(fac, raw)):
        idx = _unhex(x, f"key.sk[{i}]")
        if not 1 <= idx <= mu(ell**e):
            raise InvariantViolation(f"key.sk[{i}]", "kernel index out of range")
        indices.append(idx)
    pk = parse_curve(_field(doc, "pk", "key"), ps.p, "key.pk")
    kp = KeyPair(ps, indices)
    if kp.pk != pk:
        raise InvariantViolation("key.pk", "pk is not the codomain of sk")
    return kp


def parse_pk(doc, ps: ParamSet) -> Curve:
    return parse_curve(_field(doc, "pk", "key"), ps.p, "key.pk")


def witness_doc(w: Witness) -> dict:
    return {"alpha": _hex(w.alpha)}


def parse_witness(doc, ps: ParamSet) -> Witness:
    alpha = _unhex(_field(doc, "alpha", "witness"), "witness.alpha")
    if alpha >= ps.C:
        raise InvariantViolation("witness.alpha", "alpha not reduced mod C")
    return Witness(alpha)


def statement_doc(s: Statement) -> dict:
    return {"ew": curve_doc(s.ew), "orientation": orientation_doc(s.oriented_image)}


def parse_statement(doc, ps: ParamSet) -> Statement:
    ew = parse_curve(_field(doc, "ew", "statement"), ps.p, "statement.ew")
    path = "statement.orientation"
    o = parse_orientation(_field(doc, "orientation", "statement"), ew, ps.primes, path)
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
    tag = s_rejection(epsi, S, ps)
    if tag is not None:
        raise InvariantViolation(f"{path}.s", f"fails {tag}")
    shapes = presignature_shapes(ps)
    rep = parse_rep(_field(doc, "rep", path), epsi, shapes, f"{path}.rep")
    proof = parse_proof(_field(doc, "proof", path), ps, s.ew, e1, f"{path}.proof")
    return PreSignature(e1, proof, epsi, S, rep)


def signature_doc(sig) -> dict:
    return {"e1": curve_doc(sig.e1), "rep": rep_doc(sig.rep)}


def parse_signature(doc, ps: ParamSet):
    """Signature from its document; the order tells plain from adapted."""
    path = "signature"
    e1 = parse_curve(_field(doc, "e1", path), ps.p, f"{path}.e1")
    shapes = signature_shapes(ps)
    rep = parse_rep(_field(doc, "rep", path), e1, shapes, f"{path}.rep")
    if rep.order == ps.A * ps.C:
        return AdaptedSignature(e1, rep)
    return PlainSignature(e1, rep)
