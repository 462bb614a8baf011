import ast
import sys
from pathlib import Path

import qlefschetz
from qlefschetz import CohElement, LambdaScalar, QSeries
from qlefschetz.ring import _Terms

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qlefschetz"


def test_every_export_resolves_and_the_list_is_sorted():
    names = qlefschetz.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(qlefschetz, name)]
    assert missing == []


def foreign_imports(path: Path) -> list[str]:
    """The absolute imports of a source file that are not from the standard library."""
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        foreign += [
            f"{path.name}: {module}"
            for module in modules
            if module.split(".")[0] not in sys.stdlib_module_names
        ]
    return foreign


def test_runtime_imports_are_stdlib_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    assert [name for path in sources for name in foreign_imports(path)] == []


def test_the_reference_model_imports_only_the_stdlib():
    # The model must not share code, or conventions, with the engine it checks.
    assert foreign_imports(Path(__file__).with_name("model.py")) == []


def test_scalars_classes_and_q_series_share_one_kernel():
    assert all(issubclass(kind, _Terms) for kind in (LambdaScalar, CohElement, QSeries))
    # The kernel's arithmetic is defined once: _times on _Terms, the two
    # numerator helpers at the top level of ring.py, and nowhere else.
    kernel = {"_times", "_add_nums", "_lowest"}
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                owners[id(child)] = node.name if isinstance(node, ast.ClassDef) else None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in kernel:
                found.add((path.name, owners[id(node)], node.name))
    assert found == {
        ("ring.py", "_Terms", "_times"),
        ("ring.py", None, "_add_nums"),
        ("ring.py", None, "_lowest"),
    }


def test_only_series_reads_the_storage_fields_and_re_keys_by_z():
    # The _Terms storage fields are read in ring.py and series.py only (a
    # module may read the fields its own classes declare in __slots__), and
    # the one rule between weight and z, series._regroup, is defined there
    # and called nowhere else: other modules read z through its readers.
    storage = {"_nums", "_den", "_trunc"}
    readers, rules = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {
            elt.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
            for elt in ast.walk(node.value)
            if isinstance(elt, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in storage - own:
                readers.append(path.name)
            if isinstance(node, ast.FunctionDef) and node.name == "_regroup":
                rules.append(path.name)
            if isinstance(node, ast.Name) and node.id == "_regroup" and path.name != "series.py":
                rules.append(path.name)
    assert set(readers) <= {"ring.py", "series.py"}
    assert rules == ["series.py"]


def test_one_transposition_serves_scalars_classes_and_q_series():
    # Term (p, a, b) of the value at key k becomes term (k, a, b) of the value
    # at key p in one function at the top level of ring.py: the constructors
    # stack scalars through it, the readers split a value into scalars through
    # it, and z_row and the S-matrix cells turn classes into q-series through it.
    defined, callers = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                owners[id(child)] = node.name if isinstance(node, ast.ClassDef) else None
            if isinstance(node, ast.FunctionDef):
                defined.append((path.name, owners[id(node)], node.name))
                if any(isinstance(n, ast.Name) and n.id == "_transposed" for n in ast.walk(node)):
                    callers.add((owners[id(node)], node.name))
    names = {name for _, _, name in defined}
    assert not names & {"_stacked", "_split", "_slot", "_columns"}
    assert [f for f in defined if f[2] == "_transposed"] == [("ring.py", None, "_transposed")]
    assert callers == {
        ("CohElement", "__init__"), ("CohElement", "components"),
        ("QSeries", "__init__"), ("QSeries", "coefficient"), ("QSeries", "coeffs"),
        ("QSeries", "invert"), ("QSeries", "exp"), ("QSeries", "compose"),
        ("ZSeries", "z_row"), (None, "_matrix_from_frame"),
    }
