"""Spans around the library's layer boundaries, installed from outside.

The tracer replaces each named function by a wrapper, both on the module
that defines it and on every module that imported it by name; methods are
wrapped on their class.  A function-local ``from .curve import f`` resolves
at call time, so wrapping the defining module covers it.  Wrappers keep a
stack of open spans: a span's self time is its duration minus the time of
the spans it caused.  Per-name totals are kept in memory, plus one span per
op (id, label, start, end) as the root of everything it caused.

The recovery oracle's candidate counts come from the DEBUG records of the
``adaptorsig.dlog`` logger ("matched after N", "exhausted N").
"""

import logging
import re
from collections import defaultdict
from time import perf_counter

# (module, function) pairs wrapped where defined and wherever imported
FUNCTIONS = (
    ("dlog", "recover_isogeny"),
    ("dlog", "decompose_2d"),
    ("isogeny", "dual_step"),
    ("isogeny", "isogeny_from_kernel"),
    ("curve", "small_torsion_basis"),
    ("curve", "canonical_torsion_basis"),
    ("curve", "weil_pairing"),
    ("curve", "isomorphisms"),
    ("nizk", "prove_parallel"),
    ("nizk", "verify_parallel"),
    ("adaptor", "presign"),
    ("adaptor", "preverify"),
    ("adaptor", "adapt"),
    ("adaptor", "extract"),
    ("sig", "keygen"),
    ("sig", "sign"),
    ("sig", "verify"),
    ("sig", "challenge_walk"),
    ("relation", "verify_relation"),
    ("serial", "encode"),
)

# (module, class, method, span name)
METHODS = (
    ("isogeny", "Step", "__init__", "isogeny.Step.init"),
    ("isogeny", "Step", "evaluate", "isogeny.Step.evaluate"),
)

# verifiers whose span name carries the mode: position of the mode argument
MODE_ARG = {"adaptor.preverify": 4, "sig.verify": 3}

_CANDIDATES = re.compile(r"matched after (\d+) of|exhausted (\d+) candidates")


class _CandidateLog(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.tested = 0
        self.recoveries = 0
        self.exhausted = 0

    def emit(self, record):
        found = _CANDIDATES.search(record.getMessage())
        if found:
            matched, exhausted = found.groups()
            self.tested += int(matched or exhausted)
            self.recoveries += 1
            self.exhausted += exhausted is not None


class Tracer:
    """Span totals per name, op root spans, and recovery candidate counts."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.op_spans = []  # (op id, label, start, end)
        self._stack = [[0.0]]  # child time of each open span
        self._undo = []
        self.log = _CandidateLog()

    # -- spans -------------------------------------------------------------

    def _enter(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame, perf_counter()

    def _exit(self, name, frame, start):
        dur = perf_counter() - start
        self._stack.pop()
        self._stack[-1][0] += dur
        self.calls[name] += 1
        self.self_s[name] += dur - frame[0]
        self.total_s[name] += dur

    def op_span(self, label, fn):
        """`fn` wrapped as the root span of one workload op."""

        def root():
            frame, start = self._enter()
            try:
                return fn()
            finally:
                self._exit("op", frame, start)
                self.op_spans.append((len(self.op_spans), label, start, perf_counter()))

        return root

    def _wrap(self, name, fn):
        pos = MODE_ARG.get(name)
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            span = name
            if pos is not None:
                span = f"{name}.{args[pos] if len(args) > pos else kwargs['mode']}"
            frame, start = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(span, frame, start)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, lib):
        """Wrap every traced function of the library generation `lib`;
        a generation already wrapped is left as it is."""
        if any(mod is lib.curve for mod, _, _ in self._undo):
            return
        modules = list(lib.modules.values())
        for mod_name, fn_name in FUNCTIONS:
            self._rebind(modules, getattr(getattr(lib, mod_name), fn_name), f"{mod_name}.{fn_name}")
        serial = lib.serial
        for fn_name in [n for n in vars(serial) if n.startswith("parse_")]:
            self._rebind(modules, getattr(serial, fn_name), "serial.parse")
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(getattr(lib, mod_name), cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(span, orig))
            self._undo.append((cls, meth, orig))
        logger = logging.getLogger("adaptorsig.dlog")
        if self.log not in logger.handlers:
            self._level = logger.level
            logger.setLevel(logging.DEBUG)
            logger.addHandler(self.log)

    def _rebind(self, modules, orig, span):
        wrapper = self._wrap(span, orig)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def uninstall(self):
        logger = logging.getLogger("adaptorsig.dlog")
        if self.log in logger.handlers:
            logger.removeHandler(self.log)
            logger.setLevel(self._level)
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()
