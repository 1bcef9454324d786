"""Every module-level import in the package is used by its module.

A deletion that leaves its import behind fails here.  A name listed in the
module's ``__all__`` counts as used, which covers re-exports.
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
