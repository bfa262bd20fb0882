"""Every public name in ``src/repro`` has a caller that is not a test.

The public surface is every module-level ``def``/``class`` and every method
of a public class whose name has no leading ``_`` (dunders excluded).  A
name counts as used when it appears

* as a ``Name``, an ``Attribute`` or an import alias anywhere in ``src/``
  outside its own definition;
* anywhere in ``examples/*.py`` or ``benchmarks/**/*.py`` (the runs that
  reproduce Table I and Figs. 4-5 count as callers);
* in a string constant that is exactly an identifier or a
  ``module:Qual.name`` target (the lazy exports of ``repro.api``, the trace
  targets); docstrings never count.

Matching is by bare name, so a name shared with anything used elsewhere
passes: the gate errs towards keeping code.  A name only tests call must be
listed in :data:`ALLOWED` with its reason; an entry that gains a caller or
no longer exists fails too, so the list cannot go stale.

The same walk checks that each field of every ``DictCodec`` configuration
block is read, as an attribute, somewhere in ``src/``, ``examples/`` or
``benchmarks/`` outside the block's own ``__post_init__``: a scenario knob
that nothing reads is a knob that does nothing.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: ``module:Qual.name`` -> why it stays although only tests call it.
ALLOWED: Dict[str, str] = {
    "repro.analysis.liveness:failed_attempt_probability": (
        "the exact product Theorem 1's proof bounds by 3^-y; the [d]-patience "
        "experiment on the chaos scenarios with crashed responders (ROADMAP 3(b)) reads it"
    ),
    "repro.crypto.pedersen_vss:PedersenVSS.verify_share": (
        "checks a share against the dealing's commitments: trustee attribution "
        "(ROADMAP 4, step 2) calls it, or deletes it with add_shares"
    ),
    "repro.crypto.pedersen_vss:PedersenVSS.add_shares": (
        "the homomorphic share sum that trustee attribution (ROADMAP 4, step 2) "
        "checks against combined commitments"
    ),
    "repro.net.adversary:Adversary.block_link": (
        "the delivery adversary's link cut (a profile fills the same blocked_links "
        "set), which the network and voter tests and the stateful adversary "
        "(ROADMAP 1(b)) drive"
    ),
    "repro.net.adversary:Adversary.add_delay_rule": (
        "the delivery adversary's per-link delay, which the simulator and batched "
        "collector tests and the stateful adversary (ROADMAP 1(b)) drive"
    ),
    "repro.net.codec:MessageCodec.registered_types": (
        "the registry the codec tests and goldens check for coverage and retired "
        "tags; without it they would read the private encoder table"
    ),
    "repro.net.codec:MessageCodec.tag_of": (
        "the wire tag of a registered type, which the retired-tag and duplicate-tag "
        "tests read; without it they would read the private encoder table"
    ),
    "repro.net.codec:MessageCodec.interned": (
        "the intern table's live entry count, which the weak-table lifetime tests "
        "read; without it they would read the private table"
    ),
}

_TARGET = re.compile(r"^(?:[A-Za-z_][\w.]*:)?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*$")


def _src_files() -> List[Path]:
    return sorted((SRC / "repro").rglob("*.py"))


def _caller_files() -> List[Path]:
    return sorted((ROOT / "examples").glob("*.py")) + sorted((ROOT / "benchmarks").rglob("*.py"))


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _docstrings(tree: ast.Module) -> Set[int]:
    """``id`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                found.add(id(body[0].value))
    return found


def _names(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of every reference in ``tree``."""
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and _TARGET.match(node.value)
        ):
            for name in node.value.rpartition(":")[2].split("."):
                yield name, node.lineno


def public_surface() -> Dict[str, Tuple[Path, str, int, int]]:
    """``module:Qual.name`` -> (file, bare name, first line, last line)."""
    surface = {}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in _src_files():
        module = _module_name(path)
        for node in _tree(path).body:
            if not (isinstance(node, defs) and _public(node.name)):
                continue
            surface[f"{module}:{node.name}"] = (path, node.name, node.lineno, node.end_lineno)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, defs[:2]) and _public(item.name):
                        where = f"{module}:{node.name}.{item.name}"
                        surface[where] = (path, item.name, item.lineno, item.end_lineno)
    return surface


def unused_symbols() -> List[str]:
    in_src: Dict[str, List[Tuple[Path, int]]] = {}
    for path in _src_files():
        for name, line in _names(_tree(path)):
            in_src.setdefault(name, []).append((path, line))
    elsewhere = {name for path in _caller_files() for name, _ in _names(_tree(path))}

    def used(path: Path, name: str, first: int, last: int) -> bool:
        if name in elsewhere:
            return True
        refs = in_src.get(name, ())
        return any(where != path or not first <= line <= last for where, line in refs)

    return sorted(qual for qual, entry in public_surface().items() if not used(*entry))


def test_every_public_symbol_has_a_caller_outside_tests():
    unlisted = [qual for qual in unused_symbols() if qual not in ALLOWED]
    assert unlisted == [], (
        f"{len(unlisted)} public name(s) in src/ have no caller outside tests; delete "
        "them or list them in ALLOWED with a reason:\n" + "\n".join(unlisted)
    )


def test_allow_list_names_only_existing_unused_symbols():
    surface, unused = public_surface(), set(unused_symbols())
    stale = sorted(qual for qual in ALLOWED if qual not in surface or qual not in unused)
    assert stale == [], "ALLOWED entries that are gone or now have a caller: " + ", ".join(stale)
    assert all(reason.strip() for reason in ALLOWED.values())


def _spec_fields() -> Dict[str, Tuple[Path, int, int]]:
    """``Block.field`` of every ``DictCodec`` block -> (file, ``__post_init__`` span)."""
    fields = {}
    for path in _src_files():
        for node in _tree(path).body:
            if not isinstance(node, ast.ClassDef):
                continue
            if "DictCodec" not in {getattr(base, "id", None) for base in node.bases}:
                continue
            inits = [item for item in node.body if getattr(item, "name", None) == "__post_init__"]
            span = (inits[0].lineno, inits[0].end_lineno) if inits else (0, -1)
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if "ClassVar" not in ast.unparse(item.annotation):
                        fields[f"{node.name}.{item.target.id}"] = (path, *span)
    return fields


def test_every_spec_field_is_read():
    reads: Dict[str, List[Tuple[Path, int]]] = {}
    for path in _src_files() + _caller_files():
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))
    fields = _spec_fields()

    def read(qual: str, home: Path, first: int, last: int) -> bool:
        where = reads.get(qual.split(".")[1], ())
        return any(path != home or not first <= line <= last for path, line in where)

    unread = sorted(qual for qual, span in fields.items() if not read(qual, *span))
    assert len(fields) > 40
    assert unread == [], "DictCodec fields no run reads: " + ", ".join(unread)


def _names_in(source: str) -> Set[str]:
    return {name for name, _ in _names(ast.parse(source))}


class TestMatchingRules:
    """The gate's own rules, on small sources: a rule that matched too much
    would let every unused name through."""

    def test_names_attributes_and_import_aliases_count(self):
        names = _names_in(
            "from repro.x import helper as h\nimport repro.y.mod\nh.method(value)\n"
        )
        assert {"helper", "mod", "h", "method", "value"} <= names

    def test_a_docstring_never_counts(self):
        names = _names_in('"""helper"""\nclass A:\n    """other"""\n    def f(self):\n'
                          '        """third"""\n')
        assert not {"helper", "other", "third"} & names

    def test_a_target_string_counts_and_prose_does_not(self):
        names = _names_in(
            'TARGETS = ("repro.core.voter:VoterClient.audit_info", "run_sharded",\n'
            '           "a sentence naming nothing")\n'
        )
        assert {"VoterClient", "audit_info", "run_sharded"} <= names
        assert not {"sentence", "naming", "nothing"} & names

    def test_the_surface_is_public_definitions_and_their_methods(self):
        surface = public_surface()
        assert "repro.api.engine:ElectionEngine" in surface
        assert "repro.api.engine:ElectionEngine.run" in surface
        assert all(
            not part.startswith("_")
            for qual in surface
            for part in qual.partition(":")[2].split(".")
        )
