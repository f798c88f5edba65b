"""RL004 — publish discipline: a served store is written in one place only.

The concurrent serving contract: readers answer against the *published*
``CubeResult`` under the engine's read lock, and the one write that may land
on it is the O(delta) apply inside ``QueryEngine.publish``, under the write
lock.  Maintenance *evaluates* a merge against the served cube without
writing (``merge_closed_cubes(serving.cube, ..., apply=False)``) and hands
the resulting slots to ``publish``.  Any other mutating call on the published
object — ``serving.cube.merge(...)``, ``self.cube.apply(...)``, a
``merge_closed_cubes(serving.cube, ...)`` that applies — races every
in-flight query with a half-applied merge.  Only :mod:`repro.query.engine`
(the module that owns ``publish``) may write a cube it did not just create.

Flagged: calls to a ``CubeResult`` mutator (``merge``/``apply``/``add``)
whose receiver is a ``.cube`` attribute chain rooted in
``self``/a parameter/module state — i.e. an object that existed before the
function ran and may be published — and ``merge_closed_cubes(...)`` calls
whose first argument is such a chain, unless they pass ``apply=False``.  The
same discipline covers the adaptive rollup layer (``src/repro/rollup/``): an
installed ``RollupTable`` is read by concurrent queries exactly like the
cube, so ``.rollup``/``.rollups`` receiver chains are held to the same
contract — maintenance derives a fresh table (``merged_delta``) and swaps it
in the engine's publish section.  Exempt: receivers that are locally
*created* in the same function (assigned from any call — ``clone()``,
``run()``, a constructor), because a value born in the function cannot be
published yet; the swap that publishes it is an assignment, which this rule
never flags.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from ..findings import Finding
from .common import dotted_name, iter_functions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine import ParsedModule

CODE = "RL004"
NAME = "publish-discipline"

#: CubeResult's mutating methods.
MUTATORS = {"merge", "apply", "add"}

#: The merge function: writes its first argument unless told ``apply=False``.
MERGE_FUNCTION = "merge_closed_cubes"

#: The one module allowed to write a pre-existing cube: it owns ``publish``.
EXEMPT_SUFFIXES = ("query/engine.py",)

#: Attribute-chain tails that name a publishable aggregate: the served cube
#: and the installed rollup tables (read concurrently under the same lock).
PUBLISHED_TAILS = ("cube", "rollup", "rollups")


def _local_bindings(function: ast.AST) -> Dict[str, Optional[str]]:
    """name -> source chain for simple local assignments.

    ``None`` marks a name bound from a call (a freshly created object); a
    dotted string marks an alias of an attribute chain.  Re-assignment keeps
    the *most permissive* view conservative: once a name has ever aliased an
    attribute chain, it stays an alias.
    """
    bindings: Dict[str, Optional[str]] = {}
    for node in ast.walk(function):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        if isinstance(node.value, ast.Call):
            bindings.setdefault(target.id, None)
        else:
            chain = dotted_name(node.value)
            if chain is not None:
                bindings[target.id] = chain
    return bindings


def _published_receiver(
    receiver: ast.expr, bindings: Dict[str, Optional[str]]
) -> Optional[str]:
    """The resolved chain when ``receiver`` may be a published cube."""
    chain = dotted_name(receiver)
    if chain is None or chain.endswith("()"):
        # A call result (``....clone().merge(...)``) is a fresh object.
        return None
    parts = chain.split(".")
    root = parts[0]
    resolved = bindings.get(root, root)
    if resolved is None:
        return None  # bound from a call in this function: locally created
    resolved_chain = ".".join([resolved, *parts[1:]])
    # Require a dotted ``<owner>.cube`` (or ``.rollup``/``.rollups``) chain:
    # an aggregate reachable *from a field* may be published; a bare local/
    # parameter named ``cube`` (the load path folding segments into a cube
    # nothing references yet) is not provably reachable by readers.
    if "." in resolved_chain and resolved_chain.split(".")[-1] in PUBLISHED_TAILS:
        return resolved_chain
    return None


def _evaluates_only(call: ast.Call) -> bool:
    """Whether a merge call passes a literal ``apply=False``."""
    return any(
        keyword.arg == "apply"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is False
        for keyword in call.keywords
    )


def _written_receiver(
    call: ast.Call, bindings: Dict[str, Optional[str]]
) -> Optional[str]:
    """``"<chain>.<mutator>"`` when ``call`` may write a published aggregate."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == MERGE_FUNCTION:
        if not call.args or _evaluates_only(call):
            return None
        resolved = _published_receiver(call.args[0], bindings)
        return None if resolved is None else f"{MERGE_FUNCTION}({resolved}, ...)"
    if isinstance(func, ast.Attribute) and name in MUTATORS:
        resolved = _published_receiver(func.value, bindings)
        return None if resolved is None else f"{resolved}.{name}()"
    return None


def check(module: "ParsedModule") -> List[Finding]:
    display = module.display.replace("\\", "/")
    if any(display.endswith(suffix) for suffix in EXEMPT_SUFFIXES):
        return []
    findings: List[Finding] = []
    seen: Set[int] = set()
    for function, _is_async in iter_functions(module.tree):
        bindings = _local_bindings(function)
        for node in ast.walk(function):
            if not isinstance(node, ast.Call) or id(node) in seen:
                continue
            seen.add(id(node))  # nested defs are walked again by iter_functions
            written = _written_receiver(node, bindings)
            if written is None:
                continue
            findings.append(
                Finding(
                    rule=CODE,
                    path=module.display,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"{written} writes a cube that may be published to "
                        "concurrent readers; evaluate the merge with "
                        "apply=False and hand its slots to "
                        "QueryEngine.publish (see "
                        "repro.incremental.maintainer), the one place a "
                        "served store is written"
                    ),
                )
            )
    return findings
