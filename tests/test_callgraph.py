"""No function in ``symchain`` recurses, except the ones allowed below.

The call graph of each module is built from its source with ``ast``.  A call
by a bare name resolves to the module's function of that name, or to a
function nested in an enclosing one; ``self.m(…)`` and ``cls.m(…)`` resolve
to every ``m`` defined by the enclosing class, its bases or its subclasses
in the same module.  Calls on any other receiver (``json.load``,
``super().__init__``, ``self.inner.complete``) are not resolved.
"""

import ast
from pathlib import Path

import symchain

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# module.function on a cycle: why its depth is bounded
ALLOWED: dict[str, str] = {}


def call_graph(source: str) -> dict[str, set[str]]:
    """The functions and methods of one module, each with the ones it calls."""
    tree = ast.parse(source)
    classes = {c.name: c for c in tree.body if isinstance(c, ast.ClassDef)}
    bases = {name: {b.id for b in c.bases if isinstance(b, ast.Name) and b.id in classes}
             for name, c in classes.items()}
    methods = {name: {f.name for f in c.body if isinstance(f, FUNCTIONS)} for name, c in classes.items()}

    def ancestors(name: str) -> set[str]:
        found, todo = set(), [name]
        while todo:
            for base in bases[todo.pop()] - found:
                found.add(base)
                todo.append(base)
        return found

    related = {name: {name, *ancestors(name), *(k for k in classes if name in ancestors(k))}
               for name in classes}
    module_functions = {f.name for f in tree.body if isinstance(f, FUNCTIONS)}
    # (qualified name, definition, enclosing class, nested functions in scope)
    todo = [(f.name, f, None, {}) for f in tree.body if isinstance(f, FUNCTIONS)]
    todo += [(f"{c.name}.{f.name}", f, c.name, {})
             for c in classes.values() for f in c.body if isinstance(f, FUNCTIONS)]
    graph: dict[str, set[str]] = {}
    while todo:
        qualified, definition, cls, scope = todo.pop()
        nested, calls, nodes = {}, [], list(ast.iter_child_nodes(definition))
        while nodes:
            node = nodes.pop()
            if isinstance(node, FUNCTIONS):
                nested[node.name] = node
                continue
            if isinstance(node, ast.Call):
                calls.append(node.func)
            nodes.extend(ast.iter_child_nodes(node))
        scope = {**scope, **{name: f"{qualified}.{name}" for name in nested}}
        todo += [(scope[name], node, cls, scope) for name, node in nested.items()]
        callees = graph[qualified] = set()
        for func in calls:
            if isinstance(func, ast.Name):
                if func.id in scope:
                    callees.add(scope[func.id])
                elif func.id in module_functions:
                    callees.add(func.id)
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in ("self", "cls") and cls is not None):
                callees |= {f"{k}.{func.attr}" for k in related[cls] if func.attr in methods[k]}
    return graph


def on_cycles(graph: dict[str, set[str]]) -> set[str]:
    """The functions that can reach themselves through calls."""
    found = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                found.add(start)
                break
            if name not in seen:
                seen.add(name)
                todo.extend(graph.get(name, ()))
    return found


def test_no_function_recurses_outside_the_allowlist():
    found = set()
    for path in sorted(Path(symchain.__file__).parent.glob("*.py")):
        found |= {f"{path.stem}.{name}" for name in on_cycles(call_graph(path.read_text(encoding="utf-8")))}
    assert found == set(ALLOWED)


def test_call_graph_resolves_self_calls_to_subclass_methods():
    source = (
        "def walk(n):\n    return n and walk(n - 1)\n"
        "def outer():\n    def inner(k):\n        return inner(k)\n    return inner(1)\n"
        "class Base:\n    def loop(self):\n        return self.step()\n"
        "class Child(Base):\n    def step(self):\n        return self.loop()\n"
        "    def other(self):\n        return super().other() or self.inner.other() or json.load(self)\n"
    )
    graph = call_graph(source)
    assert graph["Base.loop"] == {"Child.step"} and graph["Child.other"] == set()
    assert on_cycles(graph) == {"walk", "outer.inner", "Base.loop", "Child.step"}
