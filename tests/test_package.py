import ast
import os
import subprocess
import sys
from pathlib import Path

import parachern


def test_every_export_resolves():
    for name in parachern.__all__:
        getattr(parachern, name)


def test_cli_import_leaves_out_the_heavy_stdlib_modules():
    # The CLI starts one interpreter per scene, so its import time counts;
    # `dataclasses` alone pulls in the modules checked here, and only
    # `--random` needs the scene generator.
    src = Path(__file__).resolve().parents[1] / "src"
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "parachern.scenegen")
    code = (
        "import sys, parachern.cli; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


# Names inside the ring kernel that carry its data format: packed
# monomials, numerator forms, the memo, the relation rows and the cover's
# scale powers.  ``_fields`` is left out: it is also the Record protocol's.
KERNEL_PRIVATES = frozenset(
    {
        "_num",
        "_den",
        "_make",
        "_memo",
        "_key",
        "_unpack",
        "_expand",
        "_entry",
        "_reduce_block",
        "_leading_exponent",
        "_degrees",
        "_relations",
        "_printed",
        "_names",
        "_shifts",
        "_mask",
        "_guard",
        "_heavy",
        "_width",
        "_pack",
        "_read",
        "_scaled",
        "_powers",
        "_sorted",
        "_coerce",
    }
)


def test_every_kernel_private_is_defined_in_the_kernel():
    # A stale name would guard nothing.  rings.py defines a private as a
    # method, a slot or an attribute it assigns.
    rings = Path(parachern.__file__).resolve().parent / "rings.py"
    defined = set()
    for node in ast.walk(ast.parse(rings.read_text(encoding="utf-8"))):
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
        elif isinstance(node, ast.Assign):
            if ast.unparse(node.targets[0]) == "__slots__":
                defined.update(ast.literal_eval(node.value))
    assert sorted(KERNEL_PRIVATES - defined) == []


def test_no_module_outside_the_kernel_reads_its_format():
    # rings.py owns the packed format; every other module goes through its
    # public names.  The Record protocol (_fill, _of) is no kernel private.
    package = Path(parachern.__file__).resolve().parent
    rings = ("rings", "parachern.rings")
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "rings.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom) and node.module in rings:
                found += [
                    f"{where} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and node.attr in KERNEL_PRIVATES
            ):
                found.append(f"{where} reads .{node.attr}")
    assert found == []
