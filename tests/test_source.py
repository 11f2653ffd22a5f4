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
