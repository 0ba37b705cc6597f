"""The scripts in ``tools/`` reach into the library's private names
(``spectrum._locate``, ``inverse._jacobian``, ...), which no public contract
keeps.  A rename would only surface when a tool is next run, and
``tools/bitcompare.py`` is how a change shows that it keeps every bit."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

#: names each tool must be seen to reach, so that the scan cannot pass by finding nothing
REACHED = {
    "bitcompare.py": {"jumpsl.spectrum._locate", "jumpsl.spectrum._sweep",
                      "jumpsl.propagation._stack", "jumpsl.inverse._jacobian",
                      "jumpsl.inverse.residuals"},
    "layertime.py": {"jumpsl.spectrum._locate", "jumpsl.inverse._jacobian",
                     "jumpsl.inverse.residuals"},
}


def _aliases(tree):
    """Each name that the source binds to jumpsl or to a name in it, with its
    dotted path (``import jumpsl as api``, ``from jumpsl import spectrum``)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name.split(".")[0], a.name if a.asname else "jumpsl")
                         for a in node.names if a.name.split(".")[0] == "jumpsl")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "jumpsl":
            names.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
    return names


def _library_path(node, aliases):
    """The dotted path in jumpsl that a name or attribute chain reads, or None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        return ".".join([aliases[node.id], *reversed(attrs)])
    return None


def _resolve(path):
    """The object at a dotted path: its longest importable module, then
    attributes (AttributeError names the first that is missing)."""
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


@pytest.mark.parametrize("tool", sorted(REACHED))
def test_tool_names_resolve(tool):
    # every library name that the tool reads resolves, and every call of a
    # library function there binds to its parameters (keywords by name)
    tree = ast.parse((TOOLS / tool).read_text())
    aliases = _aliases(tree)
    seen = set()
    for node in ast.walk(tree):
        if (path := _library_path(node, aliases)) is not None:
            _resolve(path)
            seen.add(path)
        if isinstance(node, ast.Call) and (path := _library_path(node.func, aliases)):
            if not any(isinstance(a, ast.Starred) for a in node.args) \
                    and all(k.arg for k in node.keywords):
                inspect.signature(_resolve(path)).bind(
                    *node.args, **{k.arg: k.value for k in node.keywords})
    assert REACHED[tool] <= seen, REACHED[tool] - seen


def test_tools_cover_every_script():
    assert sorted(p.name for p in TOOLS.glob("*.py")) == sorted(REACHED)


def test_fit_reads_the_functions_that_bitcompare_rebinds():
    # bitcompare records a fit's every residual and Jacobian by rebinding
    # inverse.residuals and inverse._jacobian, so fit must read them as
    # module globals; and fit hands its forward data on through _forward
    from jumpsl import inverse

    names, codes = set(), [inverse.fit.__code__]
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
    assert {"residuals", "_jacobian"} <= names
    assert "_forward" in inspect.signature(inverse.residuals).parameters
