"""Every public name the package defines has a reader outside the tests.

A helper, method or class that only tests call is surface the program does
not need; what the tests still need lives in the tests (conftest.py).  The
check is by name: a public function, class or method defined in src/sgps
passes when the same name is read (a name, an attribute, or a string
constant equal to it, as mock.patch.object and getattr take) by code in
src/, scripts/ or bench/.  Its own definition, uses inside a definition of
the same name, and the ``from .x import name`` lines of ``__init__``
re-exports do not count.  Matching by name can miss a dead method that
shares its name with a live one, but never flags a name that is read.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sgps"
READER_DIRS = ("src", "scripts", "bench")

# name -> why it stays without a reader outside the tests
ALLOWED = {
    "jacobian_trace": "the exact trace criterion 03 checks the probe estimate against; "
                      "kept for the probe-trace diagnostic (ROADMAP item 1)",
    "normality_report": "criterion 12's documented residual diagnostic",
    "qq_correlation_threshold": "criterion 12's documented null threshold for normality_report",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def defined_names() -> dict[str, list[str]]:
    """Public module-level functions and classes, and public methods of
    public classes, each with the places that define it."""
    out: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(ROOT).as_posix()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or not _public(node.name):
                continue
            out.setdefault(node.name, []).append(where)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        out.setdefault(item.name, []).append(f"{where}:{node.name}")
    return out


class _Reads(ast.NodeVisitor):
    """Names read in a module, leaving out reads inside a definition of the
    same name (recursion, or a wrapper's delegation to what it wraps)."""

    def __init__(self):
        self.names: set[str] = set()
        self._inside: list[str] = []

    def _definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name):
        if name not in self._inside:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self._read(node.value)


def read_names() -> set[str]:
    reads = _Reads()
    for top in READER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            reads.visit(ast.parse(path.read_text(encoding="utf-8")))
    return reads.names


def test_every_public_name_has_a_reader_outside_the_tests():
    defined = defined_names()
    reads = read_names()
    unread = {name: where for name, where in defined.items()
              if name not in reads and name not in ALLOWED}
    assert unread == {}, f"read only by tests (delete, or allow with a reason): {unread}"


def test_allow_list_names_only_unread_definitions():
    # an entry whose name is gone, or has gained a reader, is stale
    defined = defined_names()
    reads = read_names()
    stale = sorted(n for n in ALLOWED if n not in defined or n in reads)
    assert stale == []
