"""Rules on the package sources, read without importing them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qsanov"
WORD_BLOCK_INTERNALS = {"_frame_sum", "_frame_table", "word_block_state"}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_only_schur_weyl_turns_labels_into_word_blocks():
    # a label set becomes word-block operators and word-state traces in
    # schur_weyl alone (`_accepted_operator`, `_accepted_traces`)
    modules = _modules()
    assert "schur_weyl" in modules
    found = []
    for name, tree in modules.items():
        if name == "schur_weyl":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            else:
                continue
            found += [(name, node.lineno, x) for x in sorted(used & WORD_BLOCK_INTERNALS)]
    assert not found, found


def _reads_imag(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Attribute) and sub.attr == "imag" for sub in ast.walk(node))


def _is_number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp):
        return _is_number(node.operand)
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def test_no_imaginary_part_is_compared_with_a_bare_constant():
    # an imaginary part is dropped by one relative rule (`quantum._drop_imag`):
    # an absolute cut drops the whole phase of an operator with small entries
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(map(_reads_imag, sides)) and any(map(_is_number, sides)):
                    found.append((name, node.lineno))
    assert not found, found
