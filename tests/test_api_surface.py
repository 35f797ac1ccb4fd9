"""Every public module-level name in the package has a caller outside the
tests, as has every public method and property of its classes; every public
exception class is caught by name, and every dataclass field is read."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "intentconf"
CALLER_DIRS = (ROOT / "src", ROOT / "bench")


def _is_click_command(node) -> bool:
    """Decorated with ``@<group>.command(...)``, ``@click.group(...)`` and the like."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_") and not _is_click_command(node):
                yield node


def _references(tree):
    """(name, line) for every name a module loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _public_members(tree):
    """(``Class.name``, node) for each public method and property of the
    module's public classes."""
    for cls in _public_definitions(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not node.name.startswith("_"):
                        yield f"{cls.name}.{node.name}", node


def _caller_trees():
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for directory in CALLER_DIRS
        for path in sorted(directory.rglob("*.py"))
    }


def _package_classes():
    """(module file name, class) for every class the package's modules define."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"intentconf.{path.stem}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield path.name, cls


def _unread(definitions):
    """``file:label`` for each (label, node) that ``definitions(tree)`` yields
    whose name nothing in src/ or bench/ reads outside the node itself."""
    trees = _caller_trees()
    references = {path: list(_references(tree)) for path, tree in trees.items()}
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for label, node in definitions(trees[path]):
            own = range(node.lineno, node.end_lineno + 1)
            used = any(
                name == node.name and (other != path or line not in own)
                for other, refs in references.items()
                for name, line in refs
            )
            if not used:
                unread.append(f"{path.name}:{label}")
    return unread


def test_public_names_have_a_caller_in_src_or_bench():
    unused = _unread(lambda tree: ((node.name, node) for node in _public_definitions(tree)))
    assert unused == [], f"public names only tests call: {unused}"


def test_public_methods_and_properties_have_a_reader_in_src_or_bench():
    """Matched by name, as the public names are: a method or property that
    only tests read is dead weight on every class that carries it."""
    unread = _unread(_public_members)
    assert unread == [], f"methods and properties only tests read: {unread}"


def _type_names(node):
    """The class names in an ``except`` clause or an ``isinstance`` check."""
    if isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from _type_names(element)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


def test_public_exceptions_are_caught_by_name():
    """A public exception class is one a caller tells apart from its base;
    one that is only raised is its base class with a longer name."""
    caught = set()
    for tree in _caller_trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught.update(_type_names(node.type))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                caught.update(_type_names(node.args[1]))
    uncaught = [
        f"{file}:{cls.__name__}"
        for file, cls in _package_classes()
        if issubclass(cls, BaseException)
        and not cls.__name__.startswith("_")
        and cls.__name__ not in caught
    ]
    assert uncaught == [], f"exception classes nothing catches by name: {uncaught}"


# The span of the reply that extraction chose; the extraction tests pin it.
UNREAD_FIELDS_ALLOWED = {"preprocess.py:ConfigDocument.source_text"}


def test_dataclass_fields_are_read():
    """A field every call builds and nothing outside the tests reads is dead weight."""
    read = {
        node.attr
        for tree in _caller_trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{file}:{cls.__name__}.{field.name}"
        for file, cls in _package_classes()
        if dataclasses.is_dataclass(cls)
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    unread = [name for name in unread if name not in UNREAD_FIELDS_ALLOWED]
    assert unread == [], f"dataclass fields nothing reads: {unread}"


YAML_IO = {"load", "safe_load", "load_all", "safe_load_all", "dump", "safe_dump", "dump_all", "safe_dump_all"}


def _yaml_names(path):
    """(line, name) for each ``yaml.<name>`` and ``from yaml import <name>`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "yaml":
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "yaml":
            yield from ((node.lineno, alias.name) for alias in node.names)


def _is_loader(name):
    """Whether ``name`` is one of PyYAML's loading functions, which compose trees themselves."""
    return name in ("load", "load_all", "compose", "compose_all") or name.startswith(
        ("safe_load", "full_load", "unsafe_load")
    )


def test_yaml_io_goes_through_preprocess():
    """Only ``preprocess`` uses PyYAML's loaders and dumpers; the rest call
    ``load_yaml_file`` and ``parse_config``, which load strictly on libyaml,
    and ``serialize_config``, which writes safe_dump's bytes. ``preprocess``
    itself loads only through ``yaml.parse``, whose events its builder reads,
    so no second reader, which could share a node, can come back."""
    bypasses = [
        f"{path.name}:{line}: yaml.{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "preprocess.py"
        for line, name in _yaml_names(path)
        if name in YAML_IO
    ]
    assert bypasses == [], f"YAML I/O outside preprocess: {bypasses}"
    names = list(_yaml_names(PACKAGE / "preprocess.py"))
    loaders = [f"preprocess.py:{line}: yaml.{name}" for line, name in names if _is_loader(name)]
    assert loaders == [], f"YAML loaders besides yaml.parse: {loaders}"
    assert "parse" in {name for _, name in names}


def _scoped_calls(node, scope=()):
    """(qualified name of the enclosing function, call) for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        if isinstance(child, ast.Call):
            yield ".".join(inner), child
        yield from _scoped_calls(child, inner)


def _reads_mapping(node) -> bool:
    """``m[k]``, ``m.get(...)``, or either one in an ``or``/``and`` chain."""
    if isinstance(node, ast.BoolOp):
        return any(_reads_mapping(value) for value in node.values)
    return isinstance(node, ast.Subscript) or (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
    )


# Reads the routing metadata of a payload the chain built, not a file.
CONVERSION_ALLOWED = {"gateway.py:MockProvider.complete"}


def test_file_reading_goes_through_preprocess():
    """Only ``preprocess`` reads file text, loads YAML text or catches what
    loading raises; the rest read their files with ``load_yaml_file`` and
    ``read_text_file``, so an unreadable or malformed file is reported the
    same way wherever it is read. Values read from a mapping go through
    ``Fields`` and its one scalar rule, not through ``str()``, ``int()`` or
    ``float()`` of their own."""
    bypasses = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "preprocess.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope, call in _scoped_calls(tree):
            func = call.func
            if (
                isinstance(func, ast.Name)
                and func.id in ("str", "int", "float")
                and call.args
                and _reads_mapping(call.args[0])
                and f"{path.name}:{scope}" not in CONVERSION_ALLOWED
            ):
                bypasses.append(f"{path.name}:{call.lineno}: {ast.unparse(call)} in {scope}")
            elif isinstance(func, ast.Attribute) and func.attr == "read_text":
                bypasses.append(f"{path.name}:{call.lineno}: .read_text( in {scope}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "convert":
                    bypasses.append(f"{path.name}:{node.lineno}: calls {name}")
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if name.lstrip("_") == "LOAD_ERRORS":
                    bypasses.append(f"{path.name}:{node.lineno}: {name}")
            elif isinstance(node, ast.ImportFrom):
                bypasses.extend(
                    f"{path.name}:{node.lineno}: imports {alias.name}"
                    for alias in node.names
                    if alias.name.lstrip("_") == "LOAD_ERRORS"
                )
    assert bypasses == [], f"file reading outside preprocess: {bypasses}"
