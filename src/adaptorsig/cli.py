"""Command-line surface.

Every artifact travels as canonical JSON; each subcommand is deterministic
under --seed.  Exit codes: 0 success / verification true, 1 verification
false (or bottom from extraction), 2 usage or parse errors.
"""

import argparse
import json
import logging
import random
import sys

from . import serial
from .adaptor import adapt, extract, presign, preverify
from .errors import ParseError, ProtocolError, WitnessStatementMismatch
from .params import PROFILES, generate_params, validate_params
from .relation import gen_r
from .sig import keygen, sign, verify
from .swap import demo_swap

#: strict-mode results rest on exhaustive recovery at toy sizes, not on the
#: full-scale verification machinery
TOY_VERIFIED_NOTE = "toy-verified: desk-scale exhaustive recovery, not a full-scale verifier"
#: light mode checks shapes, the canonical basis and the pairing law only
LIGHT_NOTE = "light: necessary conditions only, not a certificate; a forgery can pass"


def _write(path, doc):
    data = serial.encode(doc)
    if path is None or path == "-":
        sys.stdout.write(data.decode())
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _read_doc(path):
    with open(path, "rb") as fh:
        return serial.loads(fh.read())


def _load_params(args):
    return serial.parse_params(_read_doc(args.params))


def _load_statement(doc, ps):
    # accept either a bare statement or a relation pair {witness, statement}
    if isinstance(doc, dict) and "statement" in doc:
        doc = doc["statement"]
    return serial.parse_statement(doc, ps)


def _message(args) -> bytes:
    return args.message.encode()


def _mode(args) -> dict:
    """verify and preverify run strict unless --light is given: the mode and
    what its verdict means, for the printed result."""
    if args.light:
        return {"mode": "light", "light_note": LIGHT_NOTE}
    return {"mode": "strict", "strict_note": TOY_VERIFIED_NOTE}


def cmd_params(args):
    rng = random.Random(args.seed)
    if args.profile == "custom":
        if not args.custom_spec:
            raise ProtocolError("--profile custom requires --custom-spec")
        try:
            spec = json.loads(args.custom_spec)
            keys = ("a", "primes", "c", "d_tau", "d_phi")
            a, primes, c, d_tau, d_phi = (spec[key] for key in keys)
            rounds = spec.get("nizk_rounds", 24)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ParseError(f"bad --custom-spec: {exc!r}") from exc
        if not isinstance(primes, list) or any(
            type(v) is not int for v in (a, c, d_tau, d_phi, rounds, *primes)
        ):
            raise ParseError("bad --custom-spec: expected integers, primes a list of them")
        profile = (a, tuple(primes), c, d_tau, d_phi, rounds)
    else:
        profile = args.profile
    ps = generate_params(profile, rng)
    if args.validate:
        report = validate_params(ps)
        for line in report.lines():
            print(line)
        if not report.ok:
            return 1
    _write(args.out, serial.params_doc(ps))
    return 0


def cmd_keygen(args):
    ps = _load_params(args)
    kp = keygen(ps, random.Random(args.seed))
    _write(args.out, serial.keypair_doc(kp))
    return 0


def cmd_genr(args):
    ps = _load_params(args)
    w, s = gen_r(ps, random.Random(args.seed))
    _write(
        args.out,
        {"witness": serial.witness_doc(w), "statement": serial.statement_doc(s)},
    )
    return 0


def cmd_presign(args):
    ps = _load_params(args)
    kp = serial.parse_keypair(_read_doc(args.key), ps)
    s = _load_statement(_read_doc(args.statement), ps)
    pre = presign(kp, _message(args), s, ps, random.Random(args.seed))
    _write(args.out, serial.presig_doc(pre))
    return 0


def cmd_preverify(args):
    ps = _load_params(args)
    pk = serial.parse_pk(_read_doc(args.key), ps)
    s = _load_statement(_read_doc(args.statement), ps)
    pre = serial.parse_presig(_read_doc(args.presignature), ps, s)
    reasons = []
    mode = _mode(args)
    ok = preverify(pk, _message(args), s, pre, mode["mode"], ps, reasons)
    out = {"ok": ok, "failed_checks": reasons, **mode}
    print(json.dumps(out, sort_keys=True))
    return 0 if ok else 1


def cmd_adapt(args):
    ps = _load_params(args)
    wdoc = _read_doc(args.witness)
    if isinstance(wdoc, dict) and "witness" in wdoc:
        wdoc = wdoc["witness"]
    w = serial.parse_witness(wdoc, ps)
    s = _load_statement(_read_doc(args.statement), ps)
    pre = serial.parse_presig(_read_doc(args.presignature), ps, s)
    try:
        sig = adapt(pre, w, ps)
    except WitnessStatementMismatch as exc:
        print(json.dumps({"ok": False, "error": str(exc)}))
        return 1
    _write(args.out, serial.signature_doc(sig))
    return 0


def cmd_extract(args):
    ps = _load_params(args)
    s = _load_statement(_read_doc(args.statement), ps)
    pre = serial.parse_presig(_read_doc(args.presignature), ps, s)
    sig = serial.parse_signature(_read_doc(args.signature), ps)
    reasons = []
    w = extract(sig, pre, s, ps, reasons)
    if w is None:
        print(json.dumps({"ok": False, "witness": None, "reasons": reasons}))
        return 1
    if args.out:
        _write(args.out, serial.witness_doc(w))
    print(json.dumps({"ok": True, "witness": serial.witness_doc(w)}))
    return 0


def cmd_sign(args):
    ps = _load_params(args)
    kp = serial.parse_keypair(_read_doc(args.key), ps)
    sig = sign(kp, _message(args), ps, random.Random(args.seed))
    _write(args.out, serial.signature_doc(sig))
    return 0


def cmd_verify(args):
    ps = _load_params(args)
    pk = serial.parse_pk(_read_doc(args.key), ps)
    sig = serial.parse_signature(_read_doc(args.signature), ps)
    reasons = []
    mode = _mode(args)
    ok = verify(pk, _message(args), sig, mode["mode"], ps, reasons)
    report = size_report(serial.encode(serial.signature_doc(sig)), sig, ps)
    out = {"ok": ok, "failed_checks": reasons, "size_report": report, **mode}
    print(json.dumps(out, sort_keys=True))
    return 0 if ok else 1


def cmd_demo_swap(args):
    ps = _load_params(args)
    transcript = demo_swap(ps, args.seed, fault=args.fault)
    _write(args.out, transcript)
    print(json.dumps({"verdict": transcript["verdict"]}))
    return 0 if transcript["verdict"] else 1


def size_report(encoded: bytes, sig, ps) -> dict:
    """Serialized size plus a bit-length extrapolation to paper scale.

    The minimal information content of a signature (E1, R) is one
    j-invariant, two compressed torsion-image points and the degree:
    bits(L) = 2L + 2(2L + 1) + qbits with L = bits(p).  The figure the
    construction reports at lambda = 128 is quoted for comparison only;
    this artifact does not reproduce it (toy parameters, composite
    response degree).
    """
    L = ps.p.bit_length()
    q = sig.rep.degree
    desk_bits = 2 * L + 2 * (2 * L + 1) + q.bit_length()
    paper_L = 500  # full-scale prime size this construction targets
    paper_qbits = paper_L  # response degree comparable to p
    paper_bits = 2 * paper_L + 2 * (2 * paper_L + 1) + paper_qbits
    return {
        "serialized_bytes": len(encoded),
        "formula": "bits = 2L (j-invariant) + 2*(2L+1) (two points) + qbits",
        "desk_scale": {"p_bits": L, "q_bits": q.bit_length(), "minimal_bytes": (desk_bits + 7) // 8},
        "paper_scale_extrapolation": {
            "p_bits": paper_L,
            "q_bits": paper_qbits,
            "minimal_bytes": (paper_bits + 7) // 8,
        },
        "reported_full_scale_bytes": 1536,
        "note": (
            "the ~1.5KB full-scale figure is quoted, not reproduced; the "
            "extrapolation above only accounts for component bit-lengths"
        ),
    }


def _add_mode(p):
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--strict", action="store_true", help="the default: certify by recovery")
    mode.add_argument("--light", action="store_true", help="necessary conditions only")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="adaptorsig",
        description="Desk-scale adaptor signatures over supersingular isogenies.",
    )
    ap.add_argument("--verbose", action="store_true", help="debug logging")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("params", cmd_params, help="generate a parameter set")
    p.add_argument("--profile", default="T0", choices=[*PROFILES, "custom"])
    p.add_argument("--custom-spec", help="JSON: a, primes, c, d_tau, d_phi")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--validate", action="store_true", help="print the invariant report")
    p.add_argument("--out", default="-")

    p = add("keygen", cmd_keygen, help="generate a key pair")
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = add("genr", cmd_genr, help="sample a witness/statement pair")
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = add("presign", cmd_presign, help="pre-sign a message against a statement")
    p.add_argument("--params", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--statement", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = add("preverify", cmd_preverify, help="verify a pre-signature")
    p.add_argument("--params", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--statement", required=True)
    p.add_argument("--message", required=True)
    _add_mode(p)
    p.add_argument("presignature")

    p = add("adapt", cmd_adapt, help="complete a pre-signature with a witness")
    p.add_argument("--params", required=True)
    p.add_argument("--presignature", required=True)
    p.add_argument("--statement", required=True)
    p.add_argument("--witness", required=True)
    p.add_argument("--out", default="-")

    p = add("extract", cmd_extract, help="extract the witness from a signature pair")
    p.add_argument("--params", required=True)
    p.add_argument("--signature", required=True)
    p.add_argument("--presignature", required=True)
    p.add_argument("--statement", required=True)
    p.add_argument("--out")

    p = add("sign", cmd_sign, help="sign with the underlying scheme")
    p.add_argument("--params", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = add("verify", cmd_verify, help="verify a signature (plain or adapted)")
    p.add_argument("--params", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--message", required=True)
    _add_mode(p)
    p.add_argument("signature")

    p = add("demo-swap", cmd_demo_swap, help="run the two-party atomic swap")
    p.add_argument("--params", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault", action="store_true", help="corrupt the adapt step")
    p.add_argument("--out", default="-")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return args.fn(args)
    except (ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
