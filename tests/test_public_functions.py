"""Source scan: every public top-level function in gssf has a caller in gssf,
or is a name that ``tests/test_acceptance.py`` imports.

Names come from the syntax tree, not the text: a call site is a bare name
(``score_answers(...)``, ``key=purity``) or an attribute of an imported gssf
module (``seq2seq.train(...)``), so ``vocab.encode`` does not count as a call
of ``model.encode``. A deleted code path then cannot leave behind a public
function that only the tests use; such a function moves into the tests as
an oracle, or goes.
"""

import ast
from pathlib import Path

import gssf

SRC = Path(gssf.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def module_aliases(tree: ast.Module, modules: set[str]) -> set[str]:
    """Names under which ``tree`` binds a gssf module."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("gssf")):
            aliases |= {a.asname or a.name for a in node.names if a.name in modules}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name.split(".")[0] == "gssf"}
    return aliases


def references(tree: ast.Module, modules: set[str]) -> set[str]:
    """Every bare name in ``tree``, and every attribute read from a gssf module."""
    aliases = module_aliases(tree, modules)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            found.add(node.attr)
    return found


def public_functions_and_references() -> tuple[dict[str, str], set[str]]:
    """Public top-level function names with their file, and every name that
    some gssf source refers to."""
    paths = sorted(SRC.rglob("*.py"))
    modules = {p.stem for p in paths if p.stem != "__init__"} | {
        p.parent.name for p in paths if p.stem == "__init__"}
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update({node.name: path.relative_to(SRC.parent).as_posix()
                        for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")})
        referenced |= references(tree, modules)
    return defined, referenced


def acceptance_imports() -> set[str]:
    tree = ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))
    return {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("gssf") for a in node.names}


def test_every_public_function_has_a_caller():
    defined, referenced = public_functions_and_references()
    allowed = acceptance_imports()
    orphans = sorted(f"{path}: {name}" for name, path in defined.items()
                     if name not in referenced and name not in allowed)
    assert orphans == []


def test_references_are_bare_names_and_gssf_module_attributes():
    tree = ast.parse("from . import seq2seq\n"
                     "import gssf.sbr as sbr_mod\n"
                     "pairs = seq2seq.encode_and_decode(params, feats)\n"
                     "ids = vocab.encode(tokens)\n"
                     "best = max(scores, key=purity)\n"
                     "sbr_mod.build_sbr_matrix(answers)\n")
    assert references(tree, {"seq2seq", "sbr"}) == {
        "seq2seq", "encode_and_decode", "sbr_mod", "build_sbr_matrix", "pairs", "params",
        "feats", "ids", "vocab", "tokens", "best", "max", "scores", "purity", "answers"}
