"""SciPy's private API and subclasses of SciPy classes in ``src/decflow``.

A ratchet: the uses listed here are the ones left, and any new one fails
this test before a SciPy release can break it.  Both sets are empty now.
``groups`` and ``mesh`` import nothing from ``scipy.sparse``: the step's
group calls take a velocity as its entries on the mesh's index structure.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "decflow"

#: (module, private SciPy name, function that uses it)
PRIVATE_USES = set()
#: (module, class, SciPy base)
SUBCLASSES = set()
#: modules that import nothing from ``scipy.sparse``
NO_SPARSE = ("groups.py", "mesh.py")


def scipy_imports(tree):
    """Local name -> dotted SciPy name, for every SciPy import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            names.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "scipy":
                    names[a.asname or "scipy"] = a.name if a.asname else "scipy"
    return names


def dotted(node, names):
    """The SciPy name that an expression ``x.y.z`` refers to, or None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in names:
        return None
    return ".".join([names[node.id], *reversed(attrs)])


def private_prefix(name):
    """``name`` up to its first private part, or None when it has none."""
    parts = name.split(".")
    for k, part in enumerate(parts):
        if part.startswith("_"):
            return ".".join(parts[: k + 1])
    return None


def scan(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = scipy_imports(tree)
    uses, subclasses = set(), set()

    def visit(node, function):
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                origin = dotted(base, names)
                if origin is not None:
                    subclasses.add((path.name, node.name, origin))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.Name, ast.Attribute)):
            origin = dotted(node, names)
            if origin is not None and private_prefix(origin):
                uses.add((path.name, private_prefix(origin), function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return uses, subclasses


def test_private_scipy_and_scipy_subclasses_are_only_the_listed_ones():
    uses, subclasses = set(), set()
    for path in sorted(SRC.glob("*.py")):
        more_uses, more_subclasses = scan(path)
        uses |= more_uses
        subclasses |= more_subclasses
    assert uses == PRIVATE_USES
    assert subclasses == SUBCLASSES


def sparse_imports(tree):
    """Every module or name from ``scipy.sparse`` that ``tree`` imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names]
    return [m for m in found if f"{m}.".startswith("scipy.sparse.")]


def test_groups_and_mesh_import_nothing_from_scipy_sparse():
    for name in NO_SPARSE:
        assert sparse_imports(ast.parse((SRC / name).read_text(encoding="utf-8"))) == [], name


def test_the_import_scan_sees_each_form():
    tree = ast.parse(
        "import scipy.sparse\nimport scipy.linalg\nfrom scipy import sparse, linalg\n"
        "from scipy.sparse import csr_array\nfrom . import mesh\n"
    )
    assert sparse_imports(tree) == ["scipy.sparse", "scipy.sparse", "scipy.sparse.csr_array"]


def test_the_scan_sees_a_new_private_use(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import scipy.sparse as sp\n"
        "from scipy import sparse\n"
        "class Mine(sparse.csc_array):\n"
        "    def f(self):\n"
        "        return sp._sputils.isshape((1, 1)), sparse.csr_array\n"
    )
    uses, subclasses = scan(path)
    assert uses == {("probe.py", "scipy.sparse._sputils", "f")}
    assert subclasses == {("probe.py", "Mine", "scipy.sparse.csc_array")}
