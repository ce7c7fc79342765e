"""Every IR edit a pass makes goes through its CodeMapper.

The paper's claim (§5.1) is that a pass becomes OSR-aware by performing
each primitive action through the CodeMapper, which records it in the
same call.  This test reads the source of every module in
``repro/passes`` and fails on any IR edit made beside the mapper:

* assigning or deleting IR state (``block.instructions = …``,
  ``del phi.incoming[p]``, ``inst.expr = …``);
* calling an IR mutator (``replace_uses``, ``rename_def``, ``retarget``,
  ``add_block``, ``remove_block``, ``rename_predecessor``) on anything
  but the mapper, or a list mutator (``insert``, ``append``, ``remove``,
  …) on anything but a container the pass built itself;
* calling a mapper's ``_record_*`` hook, which would record an action
  that no edit performed.
"""

import ast
from pathlib import Path

import pytest

import repro

PASSES = Path(repro.__file__).parent / "passes"

#: Attributes that hold IR state.
IR_STATE = {
    "instructions", "incoming", "expr", "cond", "addr", "value", "args", "dest",
    "target", "then_target", "else_target", "blocks", "params",
}
#: Methods that only mutate IR.
IR_MUTATORS = {
    "replace_uses", "rename_def", "retarget", "add_block", "remove_block",
    "rename_predecessor",
}
#: List methods: a mutation of IR unless the receiver is the pass's own container.
LIST_MUTATORS = {"insert", "append", "remove", "pop", "extend", "clear"}
CONTAINER_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
CONTAINER_CALLS = {"list", "dict", "set", "deque", "sorted"}
CONTAINER_ANNOTATIONS = {"List", "Dict", "Set", "Deque"}

#: (module, function) → why the function may edit IR directly.
ALLOWED = {
    ("inline.py", "_renamed_copy"): (
        "edits a private clone of the callee that no mapper indexes; its "
        "instructions reach the caller only through mapper.insert"
    ),
}


def _containers(tree: ast.Module) -> set:
    """Names the module binds to containers it builds (module-wide, by name).

    A container is a list, dict, set or deque, or an instance of a class
    the module defines itself (a pass's own bookkeeping structure).
    """
    own_classes = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    calls = CONTAINER_CALLS | own_classes
    annotations = CONTAINER_ANNOTATIONS | own_classes
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            built = isinstance(value, CONTAINER_NODES) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in calls
            )
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if built:
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotation = node.annotation
            if isinstance(annotation, ast.Subscript):
                annotation = annotation.value
            if isinstance(annotation, ast.Name) and annotation.id in annotations:
                names.add(node.arg)
    return names


def _is_self_attribute(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _ir_target(node: ast.AST) -> bool:
    """``x.<ir state>`` or ``x.<ir state>[…]``, for any ``x`` but ``self``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    is_state = isinstance(node, ast.Attribute) and node.attr in IR_STATE
    return is_state and not _is_self_attribute(node)


def violations(source: str, module: str) -> list:
    tree = ast.parse(source)
    containers = _containers(tree)
    allowed_bodies = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and (module, node.name) in ALLOWED
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed_bodies:
            continue
        line = getattr(node, "lineno", 0)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
            targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
            for target in targets:
                elements = target.elts if isinstance(target, ast.Tuple) else [target]
                found += [f"{module}:{line} assigns IR state" for t in elements if _ir_target(t)]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method, receiver = node.func.attr, node.func.value
            on_mapper = isinstance(receiver, ast.Name) and receiver.id == "mapper"
            if method.startswith("_record"):
                found.append(f"{module}:{line} calls the record hook {method}")
            elif method in IR_MUTATORS and not on_mapper:
                found.append(f"{module}:{line} calls .{method} beside the mapper")
            elif method in LIST_MUTATORS and not on_mapper:
                own = (
                    isinstance(receiver, ast.Call)
                    or _is_self_attribute(receiver)
                    or (isinstance(receiver, ast.Name) and receiver.id in containers)
                )
                if not own:
                    found.append(f"{module}:{line} calls .{method} on IR")
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PASSES.glob("*.py")))
def test_passes_edit_ir_only_through_the_mapper(module):
    assert violations((PASSES / module).read_text(), module) == []


@pytest.mark.parametrize(
    "planted",
    [
        "block.instructions = []",
        "del phi.incoming[label]",
        "block.instructions[-1] = jump",
        "inst.expr = folded",
        "block.insert(0, inst)",
        "function.remove_block(label)",
        "inst.replace_uses({name: value})",
        "mapper._record_delete(inst)",
    ],
)
def test_a_planted_edit_is_caught(planted):
    source = f"def transform(self, function, mapper):\n    {planted}\n"
    assert len(violations(source, "planted.py")) == 1
