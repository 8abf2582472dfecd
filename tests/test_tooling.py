"""Checks on the source tree itself.

The benchmark tracer finds its probe targets by name, so a renamed or
deleted function would only show up when a traced run fails. `python -O`
strips `assert` statements, so an invariant written as one would go
unchecked. A memo without a size cap grows with every distinct input, and a
shape table built outside its memo is rebuilt on every call. The README
quotes the caps the command line enforces, so a changed cap must change
those quotes too, and its command lines must parse. Every command-line run
pays the package's import, so that import stays free of `dataclasses`,
`inspect` and `typing`. The four legged fillings set their fields in one
body, so a field's normalisation and checks are written once.
"""

import ast
import importlib
import importlib.util
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, module, attr, *_ in tracer.FUNCTIONS:
        target = importlib.import_module(f"pptoggle.{module}")
        for piece in attr.split("."):
            target = getattr(target, piece, None)
        if not callable(target):
            missing.append(name)
    assert tracer.FUNCTIONS and not missing


def test_no_assert_statements_in_the_package():
    # internal invariants raise errors.InvariantError, which -O keeps
    sources = sorted((ROOT / "src").rglob("*.py"))
    found = [f"{path.relative_to(ROOT)}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert sources and not found


def test_the_diagonal_layout_lives_in_configurations():
    # which cell holds entry k of diagonal d is configurations' codec
    # (diagonals, from_diagonals, reading the level along _layout): no other
    # module reads a level diagonal or a layout, and the bijections relabel
    # d as -d instead of transposing
    sources = sorted((ROOT / "src").rglob("*.py"))
    naming: dict[str, set] = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            naming.setdefault(name, set()).add(path.stem)
    assert naming["_level_diagonals"] == {"configurations"}
    assert naming["_layout"] == {"configurations"}
    tree = ast.parse((ROOT / "src/pptoggle/bijections.py").read_text())
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    assert imported and not {"diagonal", "transpose"} & imported


def test_configurations_imports_no_higher_layer():
    # the fillings, their codec and their weights sit under the series, the
    # oracle, the bijections and the front ends: configurations imports
    # none of them, at module top or inside a function
    tree = ast.parse((ROOT / "src/pptoggle/configurations.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.rsplit(".", 1)[-1])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {a.name.rsplit(".", 1)[-1] for a in node.names}
    assert "partitions" in imported
    assert not {"series", "oracle", "bijections", "verify", "cli",
                "render"} & imported


def test_a_legged_filling_sets_its_fields_in_one_place():
    # the one-leg and two-leg fillings share _init_legged, which reads the
    # field names off the class's _fields; only the plane partition and the
    # hook tableau, whose fields differ, set their own
    tree = ast.parse((ROOT / "src/pptoggle/configurations.py").read_text())
    scopes = [(node.name, node) for node in tree.body
              if isinstance(node, ast.FunctionDef)]
    scopes += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, ast.FunctionDef)]
    setting = sorted(name for name, fn in scopes
                     if "set_field" in _called(fn))
    assert setting == ["HookTableau.__init__", "PlanePartition.__init__",
                       "_init_legged"]


def _names(path: Path) -> set:
    return {node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None
            for node in ast.walk(ast.parse(path.read_text()))}


def _shifted_cells(node) -> bool:
    """A tuple of two or more cells, each written with an index shifted by
    arithmetic, such as ((i - 1, j), (i, j - 1)): a cell's neighbours."""
    return (isinstance(node, ast.Tuple) and len(node.elts) >= 2
            and all(isinstance(e, ast.Tuple) and len(e.elts) == 2
                    and any(isinstance(x, ast.BinOp) for x in e.elts)
                    for e in node.elts))


def test_each_filling_order_is_written_in_configurations():
    # a filling's domain is where its at reads WALL and its order is its
    # row of configurations.FILLINGS: the oracle and render read those, and
    # the neighbours that bound a cell are written once, in bounding_cells
    package = ROOT / "src/pptoggle"
    for stem in ("oracle", "render"):
        assert not {"contains", "two_leg_floor",
                    "two_leg_ceiling"} & _names(package / f"{stem}.py"), stem
    # the oracle reads a shape only through its corners, so no band is
    # sized from a leg's parts
    assert "part" not in _names(package / "oracle.py")
    written = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(
                    _shifted_cells(node) for node in ast.walk(fn)):
                written.append(f"{path.stem}.{fn.name}")
    assert written == ["configurations.bounding_cells"]


def _functions(path: Path) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef)}


def _called(fn: ast.FunctionDef) -> set:
    return {getattr(node.func, "id", None) for node in ast.walk(fn)
            if isinstance(node, ast.Call)}


def _memoised(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None)
               == "lru_cache" for d in fn.decorator_list)


def test_each_shape_table_is_built_in_one_place():
    # a shape's columns and diagonals are counted from its rows: the one
    # per-shape table is partitions' memo _rising, of len(lam) ints, built
    # nowhere else; _lengths and the public conjugate read column_length,
    # and boundary keeps only the runner tops, keyed by (shape, n)
    memos, rising = set(), set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        for name, fn in _functions(path).items():
            if _memoised(fn):
                memos.add((path.stem, name))
            if "_rising" in _called(fn):
                rising.add((path.stem, name))
    assert {m for m in memos if m[0] in ("partitions", "boundary")} == {
        ("partitions", "_rising"), ("boundary", "_runner_tops")}
    assert rising == {("partitions", "rows_past")}

    boundary = _functions(ROOT / "src/pptoggle/boundary.py")
    partitions = _functions(ROOT / "src/pptoggle/partitions.py")
    assert [a.arg for a in boundary["_runner_tops"].args.args] == ["lam", "n"]
    assert "column_length" in _called(partitions["_lengths"])
    assert "column_length" in _called(partitions["conjugate"])


def test_no_function_calls_itself():
    # the oracle's walks loop over rows and the interlacers over parts, so a
    # long leg cannot exhaust the stack
    recursive = [f"{path.stem}.{fn.name}"
                 for path in sorted((ROOT / "src/pptoggle").glob("*.py"))
                 for fn in ast.walk(ast.parse(path.read_text()))
                 if isinstance(fn, ast.FunctionDef) and fn.name in _called(fn)]
    assert not recursive


def _integer_expression(node) -> bool:
    """An integer written out in the source: a literal, or literals joined
    by arithmetic such as 1 << 12."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    return (isinstance(node, ast.BinOp) and _integer_expression(node.left)
            and _integer_expression(node.right))


def test_every_memo_names_its_maxsize():
    # functools.cache, a bare @lru_cache and lru_cache(maxsize=None) are
    # all refused: each memo states its bound as an integer
    sources = sorted((ROOT / "src").rglob("*.py"))
    memos, unbounded = 0, []
    for path in sources:
        tree = ast.parse(path.read_text())
        calls = {id(node.func): node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name not in ("lru_cache", "cache"):
                continue
            memos += 1
            call = calls.get(id(node))
            size = call and ([k.value for k in call.keywords
                              if k.arg == "maxsize"] + call.args[:1])
            if not (size and _integer_expression(size[0])):
                unbounded.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert memos and not unbounded


README_CAPS = [("series", "MAX_STATES"), ("series", "MAX_WORD_OPS"),
               ("series", "MAX_FLOOR_ENTRIES"), ("bijections", "MAX_BOX_CELLS"),
               ("render", "MAX_PICTURE_CELLS")]


def test_readme_quotes_each_cap_at_its_value():
    # every "`module.NAME` (value)" or "`module.NAME` = value" in the
    # README quotes the constant's value, and each cap is quoted once at least
    readme = (ROOT / "README.md").read_text()
    for module, name in README_CAPS:
        value = getattr(importlib.import_module(f"pptoggle.{module}"), name)
        quoted = re.findall(
            rf"`{module}\.{name}`\s*[(=]\s*(\d+(?:,\d{{3}})*)", readme)
        assert quoted and set(quoted) == {f"{value:,}"}, (name, quoted)


HEAVY_MODULES = ("dataclasses", "inspect", "typing")


def test_the_command_line_imports_no_heavy_module():
    # every run starts in a fresh interpreter, so what the package imports
    # is paid on each one; -S keeps site's own imports out of the count
    probe = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
             "import pptoggle.cli; "
             f"print(sorted(m for m in {HEAVY_MODULES!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]", out


def test_each_readme_command_line_parses():
    # nothing is run: a renamed flag or verb fails here until README follows
    from pptoggle.cli import build_parser
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("pptoggle ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
