"""Source-level guards on the package itself."""

import ast
from pathlib import Path

import codistill

SRC = Path(codistill.__file__).parent

# a top-level name allowed to have no caller inside the package
NO_CALLER_YET = {"parse_metrics_line"}  # until `codistill report` reads metrics.log


def _top_level_statements():
    """(module file name, top-level statement) over every module of the package."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            yield path.name, node


def test_every_top_level_function_and_class_has_a_program_caller():
    statements = list(_top_level_statements())
    defs = [(module, node) for module, node in statements if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    uncalled = []
    for module, definition in defs:
        used = any(
            isinstance(n, ast.Name) and n.id == definition.name
            for _, node in statements
            if node is not definition
            for n in ast.walk(node)
        )
        if not used and definition.name not in NO_CALLER_YET:
            uncalled.append(f"{module}:{definition.lineno} {definition.name}")
    assert not uncalled, "no reference inside src/codistill: " + ", ".join(uncalled)
    assert NO_CALLER_YET <= {node.name for _, node in defs}, "an allowed exception no longer exists"


def test_every_method_and_property_has_a_program_reference():
    """A non-dunder method or property of a package class is read as an attribute somewhere in the package."""
    trees = [(path.name, ast.parse(path.read_text(), filename=str(path))) for path in sorted(SRC.glob("*.py"))]
    attributes = {n.attr for _, tree in trees for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unreferenced = [
        f"{module}:{item.lineno} {cls.name}.{item.name}"
        for module, tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
        and not (item.name.startswith("__") and item.name.endswith("__"))
        and item.name not in attributes
    ]
    assert not unreferenced, "no attribute reference inside src/codistill: " + ", ".join(unreferenced)


def test_only_recordio_imports_struct():
    """One module owns the binary on-disk format."""
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "struct" for name in names):
                importers.add(path.name)
    assert importers == {"recordio.py"}


CONFIG_CLASSES = {"TrainConfig", "ArchConfig", "SynthSpec"}


def test_config_dataclasses_define_no_property():
    """A run's switches are its config fields: a property would be a second, derived switch."""
    found, properties = set(), []
    for module, node in _top_level_statements():
        if isinstance(node, ast.ClassDef) and node.name in CONFIG_CLASSES:
            found.add(node.name)
            properties += [
                f"{module}:{item.lineno} {node.name}.{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
                and any(isinstance(d, ast.Name) and d.id == "property" for d in item.decorator_list)
            ]
    assert found == CONFIG_CLASSES, "a config class moved or was renamed"
    assert not properties, "config dataclass properties: " + ", ".join(properties)


def test_every_error_type_has_an_exit_code():
    """cli.main names each exception class of errors.py in an except clause, so
    none reaches the user as a traceback."""
    statements = list(_top_level_statements())
    errors = {node.name for module, node in statements if module == "errors.py" and isinstance(node, ast.ClassDef)}
    (main,) = [node for module, node in statements if module == "cli.py" and isinstance(node, ast.FunctionDef) and node.name == "main"]
    caught = {
        n.id
        for handler in ast.walk(main)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
        for n in ast.walk(handler.type)
        if isinstance(n, ast.Name)
    }
    assert errors, "errors.py defines no exception class"
    assert errors <= caught, "not caught in cli.main: " + ", ".join(sorted(errors - caught))


def _nodes_by_function():
    """(module file name, enclosing function name, node) for every node of the
    package; the function is the innermost top-level function or method
    (nested functions count as their parent), None at module level."""
    for module, node in _top_level_statements():
        scopes = [node] if isinstance(node, ast.FunctionDef) else node.body if isinstance(node, ast.ClassDef) else []
        named = {id(n): (scope.name if isinstance(scope, ast.FunctionDef) else None) for scope in scopes for n in ast.walk(scope)}
        for n in ast.walk(node):
            yield module, named.get(id(n)), n


# where outside input is read: the only places an input-error class may be raised
INPUT_BOUNDARY = {
    ("trainer.py", "__post_init__"),  # TrainConfig
    ("students.py", "__post_init__"),  # ArchConfig
    ("data.py", "__post_init__"),  # SynthSpec
    ("data.py", "generate_dataset"),
    ("data.py", "save_dataset"),
    ("data.py", "load_dataset"),
    ("data.py", "miou_from_confusion"),
    ("losses.py", "check_labels"),
    ("trainer.py", "load_checkpoint"),
}
INPUT_BOUNDARY_MODULES = {"recordio.py", "cli.py"}


def test_input_errors_are_raised_only_at_the_boundary():
    """ConfigError and DataError (exit 2) blame the user's input, so only code
    that reads outside input raises them; a fault only the program can cause
    (a shape that does not fit) is a ShapeError."""
    stray = [
        f"{module}:{node.lineno} in {function}"
        for module, function, node in _nodes_by_function()
        if isinstance(node, ast.Raise) and node.exc is not None
        for exc in [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
        if isinstance(exc, ast.Name) and exc.id in ("ConfigError", "DataError")
        and module not in INPUT_BOUNDARY_MODULES and (module, function) not in INPUT_BOUNDARY
    ]
    assert not stray, "input-error class raised inside the program: " + ", ".join(stray)


def _write_mode(call):
    """The mode of an open() or Path.open() call that may write, else None."""
    if isinstance(call.func, ast.Name) and call.func.id == "open":
        positional = call.args[1:2]
    elif isinstance(call.func, ast.Attribute) and call.func.attr == "open":
        positional = call.args[:1]
    else:
        return None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), positional[0] if positional else None)
    if mode is None:
        return None
    if not isinstance(mode, ast.Constant):
        return "a computed mode"
    return mode.value if set(mode.value) & set("wax+") else None


def test_files_are_written_only_through_replacing():
    """Every artifact is renamed into place by recordio.replacing, so an
    interrupted write leaves no partial file; metrics.log alone is appended
    line by line, as each step completes."""
    allowed = {("recordio.py", "replacing"), ("trainer.py", "run_training")}
    writes = []
    for module, function, node in _nodes_by_function():
        if isinstance(node, ast.Attribute) and node.attr in ("write_text", "write_bytes"):
            writes.append(f"{module}:{node.lineno} {node.attr}")
        elif isinstance(node, ast.Call) and _write_mode(node) and (module, function) not in allowed:
            writes.append(f"{module}:{node.lineno} open for writing in {function}")
    assert not writes, "file written outside recordio.replacing: " + ", ".join(writes)
