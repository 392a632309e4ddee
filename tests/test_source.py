import ast
from pathlib import Path

import nsbox

SRC = Path(nsbox.__file__).resolve().parent


def test_library_has_no_assert_statements():
    """python -O strips assert, so no check in the library may rely on it."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _defined_names(stmt):
    """The names a module-level statement defines: a function or class, or
    the plain names an assignment binds, dunders left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and not node.id.startswith("__")]


def test_every_module_level_definition_is_used_or_exported():
    """A module-level function, class or assigned name that no other
    statement of the package references and ``nsbox.__all__`` does not
    list is dead code."""
    stmts = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body]
    uses = [{node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(stmt)
             if isinstance(node, (ast.Name, ast.Attribute))}
            for _, stmt in stmts]
    dead = [f"{module}:{name}" for i, (module, stmt) in enumerate(stmts)
            for name in _defined_names(stmt)
            if name not in nsbox.__all__
            and not any(name in u for j, u in enumerate(uses) if j != i)]
    assert dead == []


def test_only_the_value_coder_asks_unique_for_an_inverse():
    """Integer values are coded as ids in one place, ``relabel._codes``:
    no other function calls ``np.unique(..., return_inverse=True)``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            found += [f"{path.name}:{getattr(stmt, 'name', node.lineno)}"
                      for node in ast.walk(stmt)
                      if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "unique"
                      and any(k.arg == "return_inverse" for k in node.keywords)]
    assert found == ["relabel.py:_codes"]


def test_only_boxes_reads_the_layout_blocks():
    """The layout's joint input -> offset mapping is read through
    ``BoxShape`` (``joint_inputs``, ``block``); other modules gather on the
    layout's arrays."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             if path.name != "boxes.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "blocks"]
    assert found == []


def test_only_boxes_walks_the_table_entries():
    """The flat-table format lives in ``boxes``: other modules gather on
    its layout rather than loop over ``shape.entries()``."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             if path.name != "boxes.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "entries"]
    assert found == []


def test_extend_enumerates_no_vertex():
    """Extensions are decided by one product on the homogenized cone and
    at most two LPs: no vertex enumeration and no sampled self-check."""
    text = (SRC / "extend.py").read_text()
    banned = ("enumerate_vertices", "_vertex_rows", "_orbit_rays", "_extreme_rays", "Random")
    assert [name for name in banned if name in text] == []


def test_locality_resumes_one_tableau():
    """Column generation appends to one phase-1 tableau: ``locality`` never
    solves an LP from the start, as ``find_nonneg_solution`` and
    ``maximize`` do."""
    text = (SRC / "locality.py").read_text()
    banned = ("find_nonneg_solution", "maximize")
    assert [name for name in banned if name in text] == []


def _imported_names(path):
    """Every dotted name a module's import statements mention, split at
    the dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {a.name for a in node.names}
    return {part for name in names for part in name.split(".")}


def test_dd_and_relabel_import_no_module_above_them():
    """``dd`` imports nothing from ``relabel`` or ``polytope``, and
    ``relabel`` nothing from ``polytope``: so the orbit-wise ray search,
    which runs ``dd`` and walks with ``relabel``, lives in ``polytope``."""
    above = {"dd.py": {"relabel", "polytope"}, "relabel.py": {"polytope"}}
    found = {name: sorted(_imported_names(SRC / name) & banned)
             for name, banned in above.items()}
    assert found == {"dd.py": [], "relabel.py": []}


def _data_nodes(node):
    """The nodes of an expression, leaving out subscript indices."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not (isinstance(node, ast.Subscript) and child is node.slice):
            yield from _data_nodes(child)


def _has_tolist(node):
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "tolist" for n in _data_nodes(node))


def test_no_tolist_list_feeds_the_integer_kernels():
    """``dd`` and ``polytope`` hand integer arrays, never a ``.tolist()``
    list, to ``_int_array``, ``_int_products`` and the DD loop: neither as
    an argument expression nor through a name bound to one.  The list
    product ``_int_matmul`` is gone."""
    kernels = {"_int_array", "_int_products", "_extreme_rays", "extreme_rays"}
    found = []
    for name in ("dd.py", "polytope.py"):
        tree = ast.parse((SRC / name).read_text())
        listed = {target.id for node in ast.walk(tree)
                  if isinstance(node, ast.Assign) and _has_tolist(node.value)
                  for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) in kernels
                    and any(_has_tolist(arg) or any(isinstance(n, ast.Name) and n.id in listed
                                                    for n in _data_nodes(arg))
                            for arg in [*node.args, *(k.value for k in node.keywords)])):
                found.append(f"{name}:{node.lineno}")
    assert found == []
    assert [p.name for p in sorted(SRC.glob("*.py")) if "_int_matmul" in p.read_text()] == []


def test_column_generation_makes_no_fraction():
    """The membership loop and the projection of its certificate run on
    integers: neither ``locality._membership`` nor ``linalg._projector``
    names ``Fraction``."""
    found = []
    for name, function in (("locality.py", "_membership"), ("linalg.py", "_projector")):
        tree = ast.parse((SRC / name).read_text())
        [node] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
        found += [f"{name}:{n.lineno}" for n in ast.walk(node)
                  if getattr(n, "id", getattr(n, "attr", None)) == "Fraction"]
    assert found == []
