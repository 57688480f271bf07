"""Seeded workloads for the protocol benchmark.

Each workload is a sequence of blocks; a block is a list of ops.  An op is
a callable that does the untimed part of the op and returns ``(lib,
call)``: ``call()`` is the timed part, drives the public API of the library
generation `lib` once and returns whether the answer was right.  Calls look
every library function up on its module at call time, so the tracer's
wrappers see them.  All workloads use the canonical parameter sets
``generate_params(profile, Random(0))``.

* session: one op is one two-party swap (``swap.demo_swap``) on a swap seed
  drawn from the workload seed, plus a wire-format round trip of its
  transcript; a block cycles the profiles T0 and T1.  Like the one-shot
  ``adaptorsig demo-swap`` command, each swap runs on a freshly imported
  library (empty caches) with parameters generated afresh.  T2 is left
  out: about one T2 swap in eight spends many minutes in
  ``curve.canonical_torsion_basis`` (for example ``demo_swap(T2 params,
  1390851128)``), which no bounded run can absorb.
* strict-accept: one op is one strict ``adaptor.preverify`` of an honest
  pre-signature or one strict ``sig.verify`` of an honest plain signature,
  at T0.  The block is two honest pre-signatures, under the messages whose
  challenge indices are 1 and 3, and two honest plain signatures, under
  indices 2 and 4; each kind has its own key and commitment.  The challenge
  fixes the first (3-isogeny) level of the recovery search, so the four
  recoveries stop in the four quarters of the candidate tree.
* strict-reject: the same two calls at T0 on forgeries that pass every
  light check: the response images are scaled by a unit k with k = 1
  (mod C) and k = 1 + A/2 (mod A), so k^2 = 1 and the pairing law holds,
  but no isogeny of the right degree matches, and recovery must exhaust
  its candidates.  The block is one forged pre-signature and one forged
  plain signature.

A strict workload repeats one fixed block, and an op's latency is its
fastest execution: on a shared host one op's executions vary by about
20 %, nearly all of it upwards.  Keys and commitments are the same for
every seed; the seed picks the messages.  Recovery walks a candidate tree
fixed by the domain curve and stops where the challenge puts the answer,
so the block costs the same whatever the seed.  Seeded keys would not:
with the dozen strict ops that fit in a run, the early-exit position and
the domain curve alone moved a run's median latency by 20-30 % from seed
to seed.

Strict ops model a one-shot verifier, like ``adaptorsig preverify --mode
strict``: inputs are kept as wire-format documents, and before each op the
library is imported afresh and the documents are parsed.
"""

import random

import library

PROFILES = {
    "session": ("T0", "T1"),
    "strict-accept": ("T0",),
    "strict-reject": ("T0",),
}


def canonical_params(lib, prof):
    return lib.params.generate_params(prof, random.Random(0))


class SetupCheckFailed(Exception):
    """An input failed the self-check made while building it."""


class Workload:
    """Blocks of ops for one workload and seed.

    `lib` is the library generation that builds the strict inputs;
    `operands` holds a T0 representation and parameter set of
    the latest generation an op used, with that generation, for the layer
    kernels.
    """

    def __init__(self, lib, name, seed, params):
        self.lib = lib
        self.name = name
        self.seed = seed
        self.params = params
        self.operands = {}
        if name == "strict-accept":
            self._block = self._accept_block()
        elif name == "strict-reject":
            self._block = self._reject_block()

    def block(self, i):
        """Block i: session blocks are all new, a strict block repeats."""
        if self.name == "session":
            return self._session_block(i)
        return self._block

    # -- session ---------------------------------------------------------

    def _session_block(self, i):
        rng = random.Random(f"{self.seed}:session:{i}")
        return [self._session_op(prof, rng.getrandbits(32)) for prof in PROFILES["session"]]

    def _session_op(self, prof, swap_seed):
        def prepare():
            lib = library.load()
            ps = canonical_params(lib, prof)
            return lib, lambda: self._swap(lib, ps, swap_seed, prof == "T0")

        return prepare

    def _swap(self, lib, ps, swap_seed, keep_operands):
        """One swap and the round trip of its transcript; whether both were right."""
        ser = lib.serial
        tr = lib.swap.demo_swap(ps, swap_seed)
        if tr["verdict"] is not True:
            return False
        blob = ser.encode(tr)
        if ser.encode(ser.loads(blob)) != blob:
            return False
        events = tr["events"]
        (st,) = [e["statement"] for e in events if e["type"] == "statement"]
        s = ser.parse_statement(st, ps)
        for e in events:
            if e["type"] == "presignature":
                doc = e["presignature"]
                pre = ser.parse_presig(doc, ps, s)
                if ser.encode(ser.presig_doc(pre)) != ser.encode(doc):
                    return False
                if keep_operands:
                    self.operands = {"rep": pre.rep_tilde, "params": ps, "lib": lib}
            elif e["type"] == "adapt":
                doc = e["signature"]
                sig = ser.parse_signature(doc, ps)
                if ser.encode(ser.signature_doc(sig)) != ser.encode(doc):
                    return False
        wits = [e["witness"] for e in events if e["type"] == "extract"]
        return len(wits) == 2 and wits[0] is not None and wits[0] == wits[1]

    # -- strict-accept -------------------------------------------------------

    def _accept_block(self):
        pre = self._accept_ops(0, (1, 3))
        sig = self._accept_ops(1, (2, 4))
        return [pre[0], sig[0], pre[1], sig[1]]

    def _accept_ops(self, i, indices):
        """Ops on honest pre-signatures (i = 0) or plain signatures (i = 1)
        under the given challenge indices."""
        lib = self.lib
        ser = lib.serial
        ps = self.params["T0"]
        rng = random.Random(f"strict-accept:{i}")
        kp = lib.sig.keygen(ps, rng)
        commit = rng.getrandbits(64)
        tag = f"{self.seed}/{i}"
        if i == 0:
            _, s = lib.relation.gen_r(ps, rng)

            def make(m):
                return lib.adaptor.presign(kp, m, s, ps, random.Random(commit))

            first = make(_message(tag, 0))
            return [
                self._strict_op(kp.pk, m, s, ser.presig_doc(pre), True)
                for m, pre in _stratum(lib, ps, first, make, tag, indices)
            ]

        def make(m):
            return lib.sig.sign(kp, m, ps, random.Random(commit))

        first = make(_message(tag, 0))
        return [
            self._strict_op(kp.pk, m, None, ser.signature_doc(sig), True)
            for m, sig in _stratum(lib, ps, first, make, tag, indices)
        ]

    # -- strict-reject -------------------------------------------------------

    def _reject_block(self):
        """One forged pre-signature and one forged plain signature."""
        lib = self.lib
        ser = lib.serial
        ps = self.params["T0"]
        rng = random.Random("strict-reject:0")
        kp = lib.sig.keygen(ps, rng)
        _, s = lib.relation.gen_r(ps, rng)
        m_pre = _message(f"{self.seed}/0", "pre")
        m_sig = _message(f"{self.seed}/0", "sig")

        pre = lib.adaptor.presign(kp, m_pre, s, ps, rng)
        fake_pre = lib.adaptor.PreSignature(
            pre.e1, pre.proof, pre.epsi, pre.s, forge_rep(lib, pre.rep_tilde, ps)
        )
        reasons = []
        if not lib.adaptor.preverify(kp.pk, m_pre, s, fake_pre, "light", ps, reasons):
            raise SetupCheckFailed(f"forged pre-signature fails light mode: {reasons}")
        if reasons:
            raise SetupCheckFailed(f"forged pre-signature left reasons {reasons}")

        sig = lib.sig.sign(kp, m_sig, ps, rng)
        fake_sig = lib.sig.PlainSignature(sig.e1, forge_rep(lib, sig.rep, ps))
        if not lib.sig.verify(kp.pk, m_sig, fake_sig, "light", ps):
            raise SetupCheckFailed("forged signature fails light mode")

        return [
            self._strict_op(kp.pk, m_pre, s, ser.presig_doc(fake_pre), False),
            self._strict_op(kp.pk, m_sig, None, ser.signature_doc(fake_sig), False),
        ]

    def _strict_op(self, pk, m, s, doc, expect):
        """Strict preverify (when a statement is given) or verify of `doc`,
        on a freshly imported library; a rejection must come from recovery."""
        ser = self.lib.serial
        pk_doc = ser.curve_doc(pk)
        s_doc = None if s is None else ser.statement_doc(s)

        def prepare():
            lib = library.load()
            ser = lib.serial
            ps = canonical_params(lib, "T0")
            pk = ser.parse_curve(pk_doc, ps.p, "pk")
            if s_doc is None:
                sig = ser.parse_signature(doc, ps)

                def call():
                    return lib.sig.verify(pk, m, sig, "strict", ps) is expect

                return lib, call

            s = ser.parse_statement(s_doc, ps)
            pre = ser.parse_presig(doc, ps, s)
            self.operands = {"rep": pre.rep_tilde, "params": ps, "lib": lib}

            def call():
                reasons = []
                ok = lib.adaptor.preverify(pk, m, s, pre, "strict", ps, reasons)
                if expect:
                    return ok is True
                return ok is False and reasons == ["rep:recovery"]

            return lib, call

        return prepare


def _message(tag, k):
    return f"pay {tag}/{k}".encode()


def _stratum(lib, ps, first, make, tag, indices):
    """(message, signed object) for each challenge index in `indices`.

    The commitment, hence E1, is the same for every message, so messages are
    searched by their challenge index alone; `first` was made for message 0.
    """
    mu = lib.sig.mu(ps.d_phi)
    if not set(indices) <= set(range(1, mu + 1)):
        raise SetupCheckFailed(f"challenge indices {indices} not in 1..{mu}")
    j = first.e1.j_invariant()
    by_index = {}
    k = 0
    while not set(indices) <= set(by_index):
        m = _message(tag, k)
        by_index.setdefault(lib.sig.hash_to_challenge_index(j, m, mu), m)
        k += 1
    m0 = _message(tag, 0)
    return [(by_index[h], first if by_index[h] == m0 else make(by_index[h])) for h in indices]


def forge_unit(ps, N):
    """k mod N with k = 1 (mod C) and k = 1 + A/2 (mod A); k^2 = 1 (mod N)."""
    A, C = ps.A, ps.C
    k = next(x for x in range(1 + A // 2, A * C, A) if x % C == 1)
    return k % N


def forge_rep(lib, rep, ps):
    """The representation with both images scaled by forge_unit."""
    k = forge_unit(ps, rep.order)
    images = tuple(rep.codomain.mul(k, T) for T in rep.images)
    if images == tuple(rep.images):
        raise SetupCheckFailed("forging unit left the images unchanged")
    return lib.isogeny.EfficientRep(
        rep.domain, rep.codomain, rep.degree, rep.order, rep.basis, images
    )
