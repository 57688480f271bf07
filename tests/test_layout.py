"""Source-layout rules for the package: imports sit at module level, the
package depends on the Python standard library alone, and every global
cache is named here."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "adaptorsig").glob("*.py"))


def _trees():
    assert SOURCES, "package sources not found"
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_no_function_local_imports():
    local = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == []


def test_absolute_imports_are_stdlib():
    foreign = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [
                f"{name}:{node.lineno} {m}"
                for m in modules
                if m.split(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == []


# the modules whose private loops run on int coordinates
ARITHMETIC = {"field", "curve", "isogeny", "dlog"}


def test_int_helpers_stay_in_the_arithmetic_modules():
    # every other module works on Points through public names: it imports
    # no underscore name of curve, isogeny or dlog
    leaks = [
        f"{name}:{node.lineno} {alias.name}"
        for name, tree in _trees()
        if name[:-3] not in ARITHMETIC
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] in ("curve", "isogeny", "dlog")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert leaks == []


def test_the_kernel_index_lives_in_isogeny():
    # the cyclic-kernel index (mu, cyclic_parts, cyclic_kernel and its
    # prime-order case _subgroup_gens) is defined once, in isogeny, and the
    # hard relation's modules, the NIZK among them, import nothing from sig
    from_sig = []
    for name, tree in _trees():
        if name not in ("orientation.py", "relation.py", "nizk.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                bound = [module] + [f"{module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                bound = [alias.name for alias in node.names]
            else:
                continue
            if any(m.split(".")[-1] == "sig" for m in bound):
                from_sig.append(f"{name}:{node.lineno}")
    assert from_sig == []
    index = {"mu", "cyclic_parts", "cyclic_kernel", "_subgroup_gens"}
    homes = [
        f"{name}:{node.name}"
        for name, tree in _trees()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in index
    ]
    assert sorted(homes) == sorted(f"isogeny.py:{fn}" for fn in index)


def test_the_nizk_walks_its_corners_through_the_chain_walks():
    # every corner the NIZK walks goes through isogeny_from_kernel or
    # walk_cyclic_tree, the walks its check and the tests count: nizk
    # imports no Step and names none, so a second walker of its own
    # cannot come back unnoticed
    (tree,) = [tree for name, tree in _trees() if name == "nizk.py"]
    named = [
        node.lineno
        for node in ast.walk(tree)
        if "Step" in (getattr(node, "id", None), getattr(node, "attr", None))
        or (isinstance(node, ast.alias) and node.name == "Step")
    ]
    assert named == []
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "isogeny"
        for alias in node.names
    }
    assert {"isogeny_from_kernel", "walk_cyclic_tree"} <= imported


def _names_used(trees) -> set:
    """Every name, attribute and imported name that the trees refer to."""
    used = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def _definitions(trees, private: bool) -> list:
    """(module, name) of each module-level function or class, private or public."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (name, node.name)
        for name, tree in trees
        for node in tree.body
        if isinstance(node, kinds) and node.name.startswith("_") == private
    ]


def test_every_private_definition_is_used():
    # a private module-level function or class that no name, attribute or
    # import in the package refers to is left over from a deletion
    trees = list(_trees())
    used = _names_used(trees)
    defined = _definitions(trees, private=True)
    assert [f"{name}:{fn}" for name, fn in defined if fn not in used] == []


def test_every_public_definition_is_used_outside_the_tests():
    # a public module-level function or class that only the tests refer to
    # is a test helper, and it lives in tests/: the package (the defining
    # module included) or the benchmark in perfbench/ must refer to it
    trees = list(_trees())
    bench = [
        (path.name, ast.parse(path.read_text(), filename=str(path)))
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    assert bench, "perfbench sources not found"
    used = _names_used(trees + bench)
    defined = _definitions(trees, private=False)
    assert [f"{name}:{fn}" for name, fn in defined if fn not in used] == []

# module-level containers that start empty and grow for the life of the
# process; there are none, and a new one has to be added here
UNBOUNDED_CACHES = set()
# module-level containers that start empty and that their module holds to a
# fixed size: module:name -> the module's name for that size
BOUNDED_CACHES = {"nizk.py:_CORNERS": "_CORNERS_KEPT"}


def _is_empty_container(node):
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, (ast.List, ast.Set)):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set")
        and not node.args
        and not node.keywords
    )


def test_arithmetic_modules_keep_no_state():
    # field, curve, isogeny and dlog are functions of their inputs: they
    # define no module-level mutable container, empty or not, and a memo a
    # protocol wants lives in the protocol's module (nizk's corners)
    literals = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    calls = ("dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque")
    state = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        if name[:-3] in ARITHMETIC
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and (
            isinstance(node.value, literals)
            or isinstance(node.value, ast.Call) and _decorator_name(node.value) in calls
        )
    ]
    assert state == []


def test_no_unlisted_global_caches():
    caches = set()
    for name, tree in _trees():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _is_empty_container(node.value):
                caches.update(f"{name}:{t.id}" for t in targets if isinstance(t, ast.Name))
    assert sorted(caches - UNBOUNDED_CACHES - set(BOUNDED_CACHES)) == []
    for cache, size in BOUNDED_CACHES.items():
        module = importlib.import_module("adaptorsig." + cache.split(".py:")[0])
        assert cache in caches and isinstance(getattr(module, size), int)


def _decorator_name(node):
    func = node.func if isinstance(node, ast.Call) else node
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_function_caches_have_a_fixed_size():
    unbounded = []
    for name, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for deco in fn.decorator_list:
                kind = _decorator_name(deco)
                if kind not in ("cache", "lru_cache"):
                    continue
                size = [kw.value for kw in getattr(deco, "keywords", ()) if kw.arg == "maxsize"]
                size += list(getattr(deco, "args", ()))[:1]
                if not (size and isinstance(size[0], ast.Constant) and type(size[0].value) is int):
                    unbounded.append(f"{name}:{fn.name}")
    assert unbounded == []


def test_every_functools_cache_has_an_int_maxsize():
    # memory stays bounded in long runs: every cache of the package is a
    # functools.lru_cache(maxsize=<int>) call, spelled through the module,
    # so functools.cache, a bare lru_cache and maxsize=None are caught as a
    # decorator or anywhere else
    unbounded = []
    for name, tree in _trees():
        called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                unbounded += [
                    f"{name}:{node.lineno} from functools import {alias.name}"
                    for alias in node.names
                    if alias.name in ("cache", "lru_cache")
                ]
            if not (
                isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "functools"
                and node.attr in ("cache", "lru_cache")
            ):
                continue
            call, size = called.get(id(node)), None
            if call is not None and node.attr == "lru_cache":
                sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"]
                size = (sizes + call.args[:1] + [None])[0]
            if not (isinstance(size, ast.Constant) and type(size.value) is int):
                unbounded.append(f"{name}:{node.lineno} functools.{node.attr}")
    assert unbounded == []
    # and at run time, each cached function reports an int bound
    bounds = {
        f"{path.stem}.{attr}": fn.cache_info().maxsize
        for path in SOURCES
        if not path.stem.startswith("__")
        for attr, fn in vars(importlib.import_module(f"adaptorsig.{path.stem}")).items()
        if hasattr(fn, "cache_info")
    }
    assert {"curve.canonical_torsion_basis", "isogeny.pairing_law"} <= set(bounds)
    assert {k: v for k, v in bounds.items() if type(v) is not int} == {}


# per source file, the functions whose rejection tags README "Verification"
# lists: the rejection functions return them, and the two adaptor verifiers
# return or assign the tags they report themselves
TAG_SOURCES = {
    "sig.py": ("rep_rejection", "response_rejection"),
    "adaptor.py": ("s_rejection", "preverify", "extract"),
    "relation.py": ("relation_rejection",),
    "nizk.py": ("proof_rejection",),
}


def _tags_in(fn):
    for node in ast.walk(fn):
        if isinstance(node, (ast.Return, ast.Assign)) and node.value is not None:
            for value in ast.walk(node.value):
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    yield value.value


def test_readme_lists_every_rejection_tag():
    code = set()
    for name, tree in _trees():
        wanted = TAG_SOURCES.get(name, ())
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in wanted:
                code.update(_tags_in(fn))
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Verification\n")[1].split("\n## ")[0]
    listed = {
        line.split("`")[1] for line in section.splitlines() if line.startswith("| `")
    }
    assert code, "no tags collected"
    assert listed == code


def test_reasons_are_reported_in_one_place():
    # every verifier hands its tag to errors.report, the one reasons.append;
    # none defines a fail() closure of its own
    appends, closures = [], []
    for name, tree in _trees():
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "append"
                and getattr(func.value, "id", None) == "reasons"
            ):
                appends.append(f"{name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef):
                bound = [node.name]
            elif isinstance(node, ast.Assign):
                bound = [getattr(t, "id", None) for t in node.targets]
            else:
                continue
            if "fail" in bound:
                closures.append(f"{name}:{node.lineno}")
    assert len(appends) == 1 and appends[0].startswith("errors.py:")
    assert closures == []


def test_readme_lists_every_parameter_rule():
    params = importlib.import_module("adaptorsig.params")
    tables = (params.SIZE_RULES, params.SHAPE_RULES, params.P_RULES, params.CURVE_RULES)
    code = {name for table in tables for name, _, _ in table}
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Profiles\n")[1].split("\n## ")[0]
    table = section.split("| rule (table) |")[1].split("\n\n")[0]
    # a table cell escapes the | of a rule name
    listed = {
        line.split("`")[1].replace("\\|", "|")
        for line in table.splitlines()
        if line.startswith("| `")
    }
    assert listed == code


def test_perfbench_bindings_resolve():
    # perfbench/tracing.py wraps these by a bare getattr, so a renamed or
    # deleted function would crash only the traced benchmark; its tables are
    # read from the source, not imported
    path = ROOT / "perfbench" / "tracing.py"
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("FUNCTIONS", "METHODS")
    }
    assert tables["FUNCTIONS"] and tables["METHODS"]
    missing = [
        f"{module}.{name}"
        for module, name in tables["FUNCTIONS"]
        if not hasattr(importlib.import_module(f"adaptorsig.{module}"), name)
    ]
    missing += [
        f"{module}.{cls}.{name}"
        for module, cls, name, _ in tables["METHODS"]
        if not hasattr(getattr(importlib.import_module(f"adaptorsig.{module}"), cls, None), name)
    ]
    assert missing == []


def test_pairing_law_has_one_home():
    # e_N(images) = e_N(basis)^degree is checked by isogeny.pairing_law
    # alone; the params basis rule is the only other pairing
    callers = set()
    for name, tree in _trees():
        scope = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update((id(node), fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "weil_pairing":
                callers.add(f"{name[:-3]}.{scope.get(id(node), '<module>')}")
    assert callers == {"isogeny.pairing_law", "params._basis_ok"}


def test_velu_codomain_formula_has_one_home():
    # a' = a - 5v and b' = b - 7w (for ell = 2, a - 5g and b - 7 x_K g) are
    # written once, in isogeny._velu: Step builds its codomain from it and
    # the recovery search reads a leaf's j from it, so neither has a copy
    homes = set()
    for name, tree in _trees():
        scope = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update((id(node), fn.name) for node in ast.walk(fn))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
                continue
            term = node.right
            if not (isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult)):
                continue
            factors = (term.left, term.right)
            if any(isinstance(f, ast.Constant) and f.value in (5, 7) for f in factors):
                homes.add(f"{name[:-3]}.{scope.get(id(node), '<module>')}")
    assert homes == {"isogeny._velu"}


def test_the_point_scan_is_read_by_one_clearing_loop():
    # curve._scan is iterated by curve._cleared, the one scan-and-clear loop
    # that both canonical_torsion_basis and _outside read, and by the public
    # scan_points alone
    readers = set()
    for name, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_scan":
                    readers.add(f"{name[:-3]}.{fn.name}")
    assert readers == {"curve._cleared", "curve.scan_points"}


def test_pairing_law_is_called_by_the_two_rejections_alone():
    # decoders and verifiers share one owner per rule: sig.rep_rejection for
    # a response's images, adaptor.s_rejection for a pre-signature's S
    callers = set()
    for name, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                func = getattr(node, "func", None)
                if getattr(func, "id", getattr(func, "attr", None)) == "pairing_law":
                    callers.add(f"{name[:-3]}.{fn.name}")
    assert callers == {"sig.rep_rejection", "adaptor.s_rejection"}


def test_strict_verification_asks_for_a_verdict():
    # sig.response_rejection reads only whether an isogeny exists, so it asks
    # dlog.isogeny_exists, which stops at the match; the matched chain is
    # built by find_isogeny and recover_isogeny alone
    tree = dict(_trees())["sig.py"]
    fn = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "response_rejection"
    )
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
    }
    assert "isogeny_exists" in called and "find_isogeny" not in called


def test_group_order_is_an_argument_of_the_basis_scan_alone():
    # every admitted curve has exponent p + 1, so the library derives it as
    # E.p + 1; the two basis functions keep the argument, which perfbench's
    # kernels pass positionally
    takers = {
        f"{name[:-3]}.{fn.name}"
        for name, tree in _trees()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if arg.arg == "group_order"
    }
    assert takers == {"curve.canonical_torsion_basis", "curve.small_torsion_basis"}


def _perfbench_calls(tree):
    """(line, module, attribute path, call) for every call into the library
    that a perfbench file makes: lib.<module>.<name>(...), with lib also
    spelled self.lib, or a call through a local name bound to lib.<module>
    or to one of its attributes (ser = lib.serial, Step = lib.isogeny.Step)."""

    def is_lib(node):
        if isinstance(node, ast.Name):
            return node.id == "lib"
        return isinstance(node, ast.Attribute) and node.attr == "lib" and (
            getattr(node.value, "id", None) == "self"
        )

    aliases = {}

    def resolve(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if not isinstance(node, ast.Attribute):
            return None
        if is_lib(node.value):
            return node.attr, ()
        base = resolve(node.value)
        return None if base is None else (base[0], base[1] + (node.attr,))

    # to a fixed point, so an alias of an alias resolves too; a name has one
    # meaning per file
    while True:
        known = len(aliases)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, bound = node.targets[0], resolve(node.value)
                if isinstance(target, ast.Name) and bound is not None:
                    assert aliases.setdefault(target.id, bound) == bound, target.id
        if len(aliases) == known:
            break
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            bound = resolve(node.func)
            if bound is not None and bound[1]:
                yield node.lineno, bound[0], bound[1], node


def test_perfbench_calls_bind_to_the_library():
    # perfbench is not edited with the library, and only its own slow tests
    # run its kernels; a call whose arity no longer fits a library signature
    # is caught here
    checked, broken = set(), []
    for name in ("kernels.py", "workloads.py"):
        tree = ast.parse((ROOT / "perfbench" / name).read_text())
        for line, module, attrs, call in _perfbench_calls(tree):
            target = importlib.import_module(f"adaptorsig.{module}")
            for attr in attrs:
                target = getattr(target, attr)
            where = f"{name}:{line} {module}.{'.'.join(attrs)}"
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                kw.arg is None for kw in call.keywords
            ):
                broken.append(f"{where}: unpacked arguments cannot be checked")
                continue
            try:
                inspect.signature(target).bind(
                    *call.args, **{kw.arg: kw.value for kw in call.keywords}
                )
            except TypeError as exc:
                broken.append(f"{where}: {exc}")
            checked.add(f"{module}.{'.'.join(attrs)}")
    assert broken == []
    # the traced kernels' basis scans and the aliased serial and Step calls
    assert {
        "curve.canonical_torsion_basis",
        "curve.small_torsion_basis",
        "isogeny.Step",
        "serial.parse_presig",
    } <= checked


def test_steps_are_built_by_calling_step_alone():
    # perfbench's isogeny.Step.init span and the tests' count_chain_work
    # wrap Step.__init__, so every step must be made by Step(...): no module
    # reaches for __new__ (Step.__new__, object.__new__) or copies an object
    # past its constructor with copy or pickle
    bypasses = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                found = [node.module]
            else:
                found = [getattr(node, "attr", None)]
            bypasses += [
                f"{name}:{node.lineno} {x}" for x in found if x in ("__new__", "copy", "pickle")
            ]
    assert bypasses == []
