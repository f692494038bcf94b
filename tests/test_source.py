"""Source-level checks on the library itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "harnack"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _names_read(tree: ast.AST) -> set[str]:
    """Every name that a Name (other than an assignment target) or an Attribute in tree reads."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _caller_trees():
    """Parsed .py files of src/, tests/, scripts/ and perfbench/, the code that may call the library."""
    root = SRC.parent.parent
    for path in sorted(p for top in ("src", "tests", "scripts", "perfbench") for p in (root / top).rglob("*.py")):
        yield ast.parse(path.read_text(), filename=str(path))


def test_every_private_module_name_is_used():
    # a module-level _name that nothing in the library reads is dead code
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined.update((name, path.name) for name in names if _private(name))
        used |= _names_read(tree)
    assert defined
    assert sorted(f"{module}: {name}" for name, module in defined.items() if name not in used) == []


def _options(fn: ast.FunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """(positional index or None, name) of each parameter with a default; a method's index skips self."""
    positional = fn.args.posonlyargs + fn.args.args
    if method and not any(isinstance(dec, ast.Name) and dec.id == "staticmethod" for dec in fn.decorator_list):
        positional = positional[1:]
    out = [(k, arg.arg) for k, arg in enumerate(positional) if k >= len(positional) - len(fn.args.defaults)]
    return out + [(None, arg.arg) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default]


def _dict_keys(tree: ast.Module) -> dict[str, set[str]]:
    """Keys of each module-level NAME = dict(...) or {...} literal, which a call may pass as **NAME."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            value = node.value
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "dict":
                out[node.targets[0].id] = {kw.arg for kw in value.keywords if kw.arg}
            elif isinstance(value, ast.Dict):
                out[node.targets[0].id] = {k.value for k in value.keys if isinstance(k, ast.Constant)}
    return out


def test_every_keyword_option_is_set_by_some_call():
    # a keyword option of a public function that no call in src/, tests/,
    # scripts/ or perfbench/ sets is a knob nobody turns; calls match by callee name
    options = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                options.setdefault(node.name, set()).update(_options(node, method=False))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        options.setdefault(fn.name, set()).update(_options(fn, method=True))
    set_by_call = set()
    for tree in _caller_trees():
        spreads = _dict_keys(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            for index, option in options.get(name, ()):
                by_position = index is not None and (starred or len(call.args) > index)
                by_name = any(
                    kw.arg == option
                    or (kw.arg is None and isinstance(kw.value, ast.Name) and option in spreads.get(kw.value.id, ()))
                    for kw in call.keywords
                )
                if by_position or by_name:
                    set_by_call.add((name, option))
    assert options
    unset = sorted(f"{name}({option}=)" for name, opts in options.items() for _, option in opts
                   if (name, option) not in set_by_call)
    assert unset == []


def test_every_public_name_is_referenced():
    # a public function, class or method that no Name or Attribute in src/,
    # tests/, scripts/ or perfbench/ reads is dead API; its own def does not count
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.add((path.name, node.name))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defined.update((path.name, f"{node.name}.{fn.name}") for fn in node.body
                               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"))
    used = set().union(*map(_names_read, _caller_trees()))
    assert defined
    assert sorted(f"{module}: {name}" for module, name in defined if name.split(".")[-1] not in used) == []
