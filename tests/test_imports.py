"""Every module-level import in the package is used by its module, and every
module-level function and class is used by the package.

A deletion that leaves its import behind fails here.  A name listed in the
module's ``__all__`` counts as used, which covers re-exports.  A function or
class that only ``__init__.py`` re-exports and only tests call is dead code
unless it is one of the user entry points named below.  The CLI catches
``ValueError`` only where it turns argv or generator settings into usage or
config errors, so it never judges data the library has judged.  ``isfinite``
is read only by ``model._real``, the one check of a real-valued setting, and
by the judges of data and of a fit's values named below.
"""

import ast
import glob
import os

import pytest

import ngcausal

MODULES = sorted(glob.glob(os.path.join(os.path.dirname(ngcausal.__file__), "*.py")))


def unused_imports(source):
    """Names bound by the module-level imports of ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_uses_its_imports(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def test_check_sees_an_unused_import():
    source = "import os\nfrom x import a, b as c\nimport p.q\n__all__ = ['a']\nos.sep\n"
    assert unused_imports(source) == [(2, "c"), (3, "p")]


# Entry points that users call and the package itself does not.
ENTRY_POINTS = {
    "predict": "a forward pass of a fitted model on new data",
    "loss_and_grad": "a model's loss and gradient on a dataset, outside any fit",
    "load_checkpoint": "reads back the checkpoints that `ngcausal fit` writes",
}


def unreferenced_definitions(sources):
    """(module, name) of the module-level functions and classes in
    ``sources`` (module name -> source) that no other top-level statement of
    any module reads, as a name or as an attribute.  ``__init__`` is skipped:
    its re-exports are no use."""
    statements = []          # (module, statement, names it reads)
    for module, source in sources.items():
        if module == "__init__":
            continue
        for node in ast.parse(source).body:
            reads = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            reads |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            statements.append((module, node, reads))
    unused = []
    for module, node, _ in statements:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not any(node.name in reads for _, other, reads in statements
                       if other is not node):
                unused.append((module, node.name))
    return sorted(unused)


def package_sources():
    """Module name -> source of every module of the package."""
    sources = {}
    for path in MODULES:
        with open(path) as fh:
            sources[os.path.basename(path)[:-3]] = fh.read()
    return sources


def test_package_uses_its_definitions():
    unused = [name for _, name in unreferenced_definitions(package_sources())]
    assert sorted(unused) == sorted(ENTRY_POINTS)


def test_check_sees_an_unreferenced_definition():
    sources = {
        "a": "def used():\n    pass\n\ndef recursive():\n    recursive()\n\n"
             "class Dead:\n    pass\n",
        "b": "from .a import used\nimport a\n\ndef f():\n    a.used()\n\nf()\n",
        "__init__": "from .a import Dead\nDead()\n",
    }
    assert unreferenced_definitions(sources) == [("a", "Dead"), ("a", "recursive")]


# The only places where the CLI turns a ValueError into something else: the
# library raises DataError where it judges the data, and main maps it to exit 3.
CLI_VALUE_ERROR_HANDLERS = {
    "_positive_int": "argv parsing: a bad --jobs is a usage error",
}
BROAD = {"ValueError", "Exception", "BaseException"}


def value_error_handlers(source):
    """Names of the module-level functions of ``source`` with an ``except``
    clause that catches ValueError: by name, through a broader class, or bare."""
    found = set()
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for handler in ast.walk(node):
            if isinstance(handler, ast.ExceptHandler) and (
                    handler.type is None
                    or {n.id for n in ast.walk(handler.type) if isinstance(n, ast.Name)} & BROAD):
                found.add(node.name)
    return sorted(found)


def test_cli_does_not_judge_data_again():
    with open(os.path.join(os.path.dirname(ngcausal.__file__), "cli.py")) as fh:
        assert value_error_handlers(fh.read()) == sorted(CLI_VALUE_ERROR_HANDLERS)


def test_check_sees_a_value_error_handler():
    source = ("def a():\n    try:\n        f()\n    except (KeyError, ValueError):\n        pass\n"
              "def b():\n    try:\n        f()\n    except DataError:\n        pass\n"
              "def c():\n    try:\n        f()\n    except:\n        pass\n"
              "def d():\n    try:\n        f()\n    except Exception as exc:\n        pass\n")
    assert value_error_handlers(source) == ["a", "c", "d"]


# The only readers of isfinite (math's or numpy's): every real-valued setting
# goes through model._real, so a hand-written check of one fails here.
ISFINITE_READERS = {
    "model._real": "the one check of every real-valued setting",
    "model.build_lagged": "judges a series before its lags are built",
    "datasets.standardize": "judges each column's mean and std",
    "evaluation.lambda_max_linear": "judges the data's penalty scale",
    "io._dataset_row": "judges each dataset row as it is read",
    "optim.fit": "judges the objective and gradient of every iteration",
}


def isfinite_readers(sources):
    """Where the modules in ``sources`` (module name -> source) read
    ``isfinite``, as a name or an attribute: ``module.function``,
    ``module.Class.method``, or ``module`` for a module-level statement."""
    found = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                scopes = [(f"{module}.{node.name}.{m.name}", m) for m in node.body
                          if isinstance(m, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                scopes = [(f"{module}.{node.name}", node)]
            else:
                scopes = [(module, node)]
            for name, scope in scopes:
                if any(isinstance(n, ast.Name) and n.id == "isfinite"
                       or isinstance(n, ast.Attribute) and n.attr == "isfinite"
                       for n in ast.walk(scope)):
                    found.add(name)
    return sorted(found)


def test_one_owner_checks_real_settings():
    assert isfinite_readers(package_sources()) == sorted(ISFINITE_READERS)


def test_check_sees_an_isfinite_reader():
    sources = {
        "a": "import math\nfrom numpy import isfinite\n\n"
             "def f(x):\n    return math.isfinite(x)\n\n"
             "class C:\n    def m(self):\n        return all(map(isfinite, self.v))\n\n"
             "    def n(self):\n        return self.v > 0\n\n"
             "OK = np.isfinite(1.0)\n",
        "b": "def g(x):\n    return x > 0\n",
    }
    assert isfinite_readers(sources) == ["a", "a.C.m", "a.f"]
