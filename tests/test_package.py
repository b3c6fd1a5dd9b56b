"""Package-wide contracts: the public names and the runtime imports."""
import ast
import sys
import types
from pathlib import Path

import ordfactor as of


def test_star_import_exports_every_public_name():
    public = {
        name
        for name, value in vars(of).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(of.__all__) == sorted(public)


def test_the_package_imports_only_the_standard_library():
    """The package has no runtime dependencies: every absolute import in
    its modules, lazy ones inside functions too, names a standard-library
    module; relative imports stay inside the package."""
    outside = []
    for path in sorted(Path(of.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.partition(".")[0] not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []
