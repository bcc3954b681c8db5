"""Source hygiene: no module imports a name it never uses, no package or
tools module catches every exception, the package keeps one memo dict, no
functools cache and, at module level, only its one program table and its
fixed companions, only jets.py and exprs.py handle the Jet wrapper, only
functions.py constructs a SmoothFn, no engine tells the local operator
classes apart, and every module-level definition in the package has a
caller."""

import ast
import re
from pathlib import Path
from types import FunctionType

from opident import identities, jets
from opident.functions import fn_from_expr
from opident.operators import builtin_blackbox

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "opident").glob("*.py"))
TOOLS = sorted((ROOT / "tools").glob("*.py"))
MODULES = sorted([*PACKAGE, *TOOLS, *(ROOT / "tests").glob("*.py")])
BENCH = sorted((ROOT / "bench").glob("*.py"))
BROAD = {"Exception", "BaseException"}
CACHES = {"lru_cache", "cache"}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import anywhere in the module and never read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    assert {"identities.py", "fingerprint.py", "test_hygiene.py"} <= {path.name for path in MODULES}
    found = {}
    for path in MODULES:
        unused = unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def test_detects_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "line 1: math",
        "line 2: path",
    ]


def broad_excepts(source: str) -> list[str]:
    """Handlers that are bare or catch Exception or BaseException, alone or
    in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {c.id for c in caught if isinstance(c, ast.Name)}
        if node.type is None or names & BROAD:
            found.append(f"line {node.lineno}")
    return found


def test_no_broad_excepts():
    assert {"identities.py", "fingerprint.py"} <= {path.name for path in PACKAGE + TOOLS}
    found = {}
    for path in PACKAGE + TOOLS:
        broad = broad_excepts(path.read_text())
        if broad:
            found[str(path.relative_to(ROOT))] = broad
    assert found == {}


def test_detects_a_broad_except():
    source = (
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        "try:\n    pass\nexcept BaseException as exc:\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    assert broad_excepts(source) == ["line 3", "line 7", "line 11"]


def dict_caches(source: str) -> list[str]:
    """Class.attribute of every `self._*cache* = {}` or `= dict()` inside a
    class, annotated or not."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            is_dict = isinstance(value, ast.Dict) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "dict"
            )
            for target in targets:
                if (
                    is_dict
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr.startswith("_")
                    and "cache" in target.attr
                ):
                    found.append(f"{cls.name}.{target.attr}")
    return found


def test_one_memo_dict():
    # one caching policy: the SmoothFn memo is the package's only dict cache
    assert [c for path in PACKAGE for c in dict_caches(path.read_text())] == [
        "SmoothFn._cache"
    ]


def test_detects_a_dict_cache():
    source = (
        "class A:\n    def __init__(self):\n"
        "        self._cache = {}\n"
        "        self._row_cache: dict = dict()\n"
        "        self.cache = {}\n"
        "        self._cache_size = 0\n"
        "        other._cache = {}\n"
        "cache = {}\n"
    )
    assert dict_caches(source) == ["A._cache", "A._row_cache"]


def module_tables(source: str) -> list[str]:
    """Name of every module-level assignment, annotated or not, of a list,
    dict or set display or comprehension, or of a list(), dict() or set()
    call."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        displays = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        if isinstance(value, displays) or (
            isinstance(value, ast.Call) and getattr(value.func, "id", None) in {"list", "dict", "set"}
        ):
            found += [target.id for target in targets if isinstance(target, ast.Name)]
    return found


def test_module_tables_are_the_program_tables():
    # jets._PROGRAMS, the one program table, holds code, never results:
    # the subset loop's programs at (identities._subset_loop, m jets, jet
    # length) and expression programs at (shape, order), each a (point,
    # grid) pair of one code object; the kernels run as written and add
    # none. Beside it are only the two name bindings of its programs, so a
    # result cache at module level shows up here
    found = {f"{path.stem}.{name}" for path in PACKAGE for name in module_tables(path.read_text())}
    assert found == {"jets._PROGRAMS", "jets._POINT_CALLS", "jets._GRID_CALLS"}
    fn_from_expr("sin(x)/(2+x^2)+exp(x)*ln(3+x)").eval_jet(0.5, 3)
    fn_from_expr("cos(x)^2.5").eval_jet((0.25, 0.5), 2)
    jets._conv((1.0, 2.0), (3.0, 4.0))
    jets._exp_derivs((1.0, 2.0))
    for kernel in (jets._ln_abs_derivs, jets._reciprocal_derivs, jets._sin_cos_derivs):
        kernel((1.0, 2.0))
    fs = [fn_from_expr("x"), fn_from_expr("sin(x)"), fn_from_expr("exp(x)")]
    identities.alternating_subset_terms(builtin_blackbox("third-derivative"), fs, 0.5)
    assert {type(key[0]) for key in jets._PROGRAMS} == {FunctionType, str}
    assert identities._subset_program(3, 4) is jets._PROGRAMS[identities._subset_loop, 3, 4][0]
    for key, (point, grid) in jets._PROGRAMS.items():
        if type(key[0]) is str:
            assert len(key) == 2 and type(key[1]) is int
        else:
            assert key[0] is identities._subset_loop
            assert len(key) == 3 and type(key[1]) is type(key[2]) is int
        assert type(point) is type(grid) is FunctionType
        assert point.__code__ is grid.__code__
        assert point.__globals__ is jets._POINT_CALLS and grid.__globals__ is jets._GRID_CALLS


def test_detects_a_module_table():
    source = (
        "_A: list = []\n_B = {}\n_C = dict()\n_D = {k: 1 for k in ()}\n"
        "_E = (1, 2)\n_F = compile('x', 'f', 'eval')\nclass K:\n    _G = []\n"
        "def f():\n    h = []\n"
    )
    assert module_tables(source) == ["_A", "_B", "_C", "_D"]


def decorator_caches(source: str) -> list[str]:
    """Name of every function decorated with functools.lru_cache or
    functools.cache, bare or called, by attribute or imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            if getattr(target, "attr", getattr(target, "id", None)) in CACHES:
                found.append(node.name)
    return found


def test_no_decorator_caches():
    # one caching policy: a functools cache would be a second one
    assert "functions.py" in {path.name for path in PACKAGE}
    assert [c for path in PACKAGE for c in decorator_caches(path.read_text())] == []


def test_detects_a_decorator_cache():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(k): pass\n"
        "@functools.lru_cache\ndef b(k): pass\n"
        "@cache\ndef c(k): pass\n"
        "class K:\n    @functools.cache\n    def d(self): pass\n"
        "@staticmethod\ndef e(k): pass\n"
        "def f(k): pass\n"
    )
    assert decorator_caches(source) == ["a", "b", "c", "d"]


def references(node: ast.AST) -> set[str]:
    """Every Name, Attribute and import alias under node."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def jet_reads(source: str) -> set[str]:
    """"Jet" if the source names it, and "derivs" if it reads an attribute
    of that name."""
    tree = ast.parse(source)
    attributes = {sub.attr for sub in ast.walk(tree) if isinstance(sub, ast.Attribute)}
    return references(tree) & {"Jet"} | attributes & {"derivs"}


def test_one_jet_representation():
    # the package's jets are derivative sequences; the Jet wrapper lives on
    # only for jets.jet_* and exprs.eval_jet, which the benchmark names
    assert {"functions.py", "identities.py"} <= {path.name for path in PACKAGE}
    found = {
        path.name: sorted(jet_reads(path.read_text()))
        for path in PACKAGE
        if path.name not in {"jets.py", "exprs.py"}
    }
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_detects_a_jet_read():
    assert jet_reads("from .jets import Jet\n") == {"Jet"}
    assert jet_reads("import jets\nv = jets.Jet(0.0, [1.0]).derivs[0]\n") == {"Jet", "derivs"}
    assert jet_reads("def derivs(x0, order):\n    return x0.derivs_of(order)\n") == set()


def smoothfn_constructions(source: str) -> list[str]:
    """Line of every call of SmoothFn, by name or as an attribute."""
    return [
        f"line {node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "SmoothFn"
    ]


def test_one_smoothfn_constructor_module():
    # every other module builds its functions, products included, through
    # the constructors of functions.py
    assert {"functions.py", "identities.py"} <= {path.name for path in PACKAGE}
    found = {path.name: smoothfn_constructions(path.read_text()) for path in PACKAGE}
    assert found.pop("functions.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_detects_a_smoothfn_construction():
    source = (
        "f = SmoothFn('x', rule)\n"
        "g = functions.SmoothFn('y', rule)\n"
        "h = fn_product([f, g])\n"
        "isinstance(f, SmoothFn)\n"
    )
    assert smoothfn_constructions(source) == ["line 1", "line 2"]


def local_class_checks(source: str) -> list[str]:
    """Line of every isinstance call whose class argument names JetOp or
    CanonicalOp, alone or in a tuple."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and len(node.args) == 2
            and references(node.args[1]) & {"JetOp", "CanonicalOp"}
        ):
            found.append(f"line {node.lineno}")
    return found


def test_one_engine_selector():
    # a local operator answers op.at(x) whatever its class: the engines
    # branch on BlackBoxOp alone
    assert {"identities.py", "operators.py"} <= {path.name for path in PACKAGE}
    found = {path.name: local_class_checks(path.read_text()) for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_detects_a_local_class_check():
    source = (
        "if isinstance(op, JetOp):\n    pass\n"
        "if isinstance(op, (BlackBoxOp, operators.CanonicalOp)):\n    pass\n"
        "if isinstance(op, BlackBoxOp):\n    pass\n"
        "if type(op) is JetOp:\n    pass\n"
    )
    assert local_class_checks(source) == ["line 1", "line 3"]


def uncalled_definitions(sources: dict[str, str], mentioned: set[str]) -> list[str]:
    """module.name of every module-level function or class of the sources
    that no other top-level statement of any source references and that is
    not in mentioned."""
    defined, statements = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node))
            statements.append((node, references(node)))
    return [
        f"{module}.{node.name}"
        for module, node in defined
        if node.name not in mentioned
        and not any(node.name in refs for other, refs in statements if other is not node)
    ]


def test_every_definition_has_a_caller():
    # a name the benchmark traces or calls counts as called
    assert {"identities.py", "layers.py"} <= {path.name for path in PACKAGE + BENCH}
    sources = {path.stem: path.read_text() for path in PACKAGE}
    mentioned = {word for path in BENCH for word in re.findall(r"\w+", path.read_text())}
    assert uncalled_definitions(sources, mentioned) == []


def test_definitions_only_the_benchmark_calls():
    # the benchmark's words keep these alive; each is deleted or gains a
    # package caller, and leaves this list, when the benchmark moves on
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert uncalled_definitions(sources, set()) == [
        "jets.jet_linear_combine",
        "jets.jet_product",
        "jets.jet_exp",
        "jets.jet_ln_abs",
        "jets.jet_reciprocal",
        "jets.jet_sin_cos",
        "jets.jet_power",
        "recovery.recover_at_point",
    ]


def test_detects_an_uncalled_definition():
    sources = {
        "a": (
            "def called(): pass\n"
            "def recursive(): return recursive()\n"
            "def traced(): pass\n"
            "class Unused:\n    def make(self): return Unused()\n"
            "def imported(): pass\n"
            "def via_attribute(): pass\n"
        ),
        "b": "from a import imported\nimport a\ncalled()\na.via_attribute()\n",
    }
    assert uncalled_definitions(sources, {"traced"}) == ["a.recursive", "a.Unused"]
