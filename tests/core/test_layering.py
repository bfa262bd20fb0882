"""``repro.core`` sits below the engine and the scale pipeline.

The protocol nodes know nothing of the layers that run them: no module of
``repro.core`` imports ``repro.api`` (the engine, the spec, the service) or
``repro.shard`` (the scale pipeline), at module level, inside a function or
under ``TYPE_CHECKING``.  Red at b961c62, where the bulletin board imported
``repro.shard`` for its shard-by-shard tally product and the vote collector
for its shard-respecting superblocks.
"""

import ast
from pathlib import Path

import pytest

CORE = Path(__file__).resolve().parents[2] / "src" / "repro" / "core"


def imported_modules(path: Path):
    """Every module ``path`` imports, wherever the import statement sits."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module


@pytest.mark.parametrize("layer", ["repro.api", "repro.shard"])
def test_core_imports_nothing_from(layer):
    offenders = sorted(
        f"{path.name}: {module}"
        for path in CORE.glob("*.py")
        for module in imported_modules(path)
        if module == layer or module.startswith(layer + ".")
    )
    assert offenders == []
