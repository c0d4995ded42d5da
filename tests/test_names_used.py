"""Every function, class and method defined in ``blobcell`` is named
somewhere else in the source, the tests or the benchmark, so a deletion
leaves no dead helper behind."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "blobcell"
SCANNED = ("src", "tests", "perfbench")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring constants of the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module,) + DEFINITIONS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                out.add(id(first.value))
    return out


def names_read(tree: ast.AST, docstrings: set[int]) -> list[str]:
    """Every name the code under ``tree`` reads: variables, attributes,
    imported names and the words of string constants (a monkeypatched or
    traced method is named by a string), but not docstrings."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.alias):
            out += node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            out += WORD.findall(node.value)
    return out


def orphans(sources: dict[str, str], defining: set[str]) -> list[str]:
    """Definitions (``module:qualified name``) in the files ``defining``
    of ``sources`` ({path: text}) whose name no other code reads: a read
    inside the definition itself (recursion) does not count.  Dunder
    methods are called by Python and are skipped."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    count: dict[str, int] = {}
    for tree in trees.values():
        for name in names_read(tree, _docstrings(tree)):
            count[name] = count.get(name, 0) + 1
    out = []
    for path in sorted(defining):
        tree = trees[path]
        docs = _docstrings(tree)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, DEFINITIONS):
                    qual = prefix + child.name
                    name = child.name
                    own = names_read(child, docs).count(name)
                    if not (name.startswith("__") and name.endswith("__")) \
                            and count.get(name, 0) <= own:
                        out.append(f"{pathlib.Path(path).stem}:{qual}")
                    visit(child, qual + ".")
                else:
                    visit(child, prefix)
        visit(tree, "")
    return out


def test_every_definition_is_named_elsewhere():
    sources = {str(path): path.read_text()
               for folder in SCANNED
               for path in sorted((ROOT / folder).rglob("*.py"))}
    assert orphans(sources, {str(path) for path in SRC.glob("*.py")}) == []


def test_an_orphan_is_found():
    lib = ("class K:\n"
           "    def used(self):\n"
           "        '''used is named in this docstring only'''\n"
           "    def dead(self):\n"
           "        return self.dead()\n"
           "    def __init__(self):\n"
           "        pass\n"
           "def traced():\n"
           "    pass\n"
           "def helper():\n"
           "    '''helper'''\n")
    user = "K().used()\nSPANS = ['K.traced']\n"
    assert orphans({"lib.py": lib, "user.py": user}, {"lib.py"}) == \
        ["lib:K.dead", "lib:helper"]
