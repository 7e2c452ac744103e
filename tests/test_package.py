import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ncorlicz

PUBLIC_NAMES = [
    "AlgebraDescriptor", "ConvergenceError", "CoreElement", "CoshMinusOne", "Element",
    "ExpMinusOne", "Functional", "GNSData", "InputError", "Interval", "IsometryReport",
    "Isomorphism", "JumpFunction", "MembershipFlags", "ModularOperator", "NormReport",
    "OrliczFunction", "PowerFunction", "RearrangementFunction", "Reduction", "Spectrum",
    "SplitMix64", "StandardForm", "TabulatedFunction", "ValidationError", "absolute",
    "apply_isomorphism", "canonical_trace", "check_delta2", "check_n_function", "compose",
    "connes_cocycle", "core_luxemburg_norm", "core_luxemburg_report", "core_modular_value",
    "core_rearrangement", "dual_action", "dual_pairing", "e_space_gauge", "eigen_spectrum",
    "embed", "fk_integral", "functional_polar", "gns", "identity_isomorphism", "interval",
    "lift_to_core", "luxemburg_norm", "luxemburg_report", "make_algebra", "membership",
    "midpoint_convexity_gap", "modular_flow", "modular_value", "norm_ratio_diagnostic",
    "numeric_conjugate_value", "operator_norm", "polar_decompose", "power_on_support",
    "radon_nikodym_sqrt", "rearrangement", "rearrangement_csv", "reduce_to_support", "registry",
    "relative_modular", "spectral_calculus", "standard_form", "support_projection", "trace",
    "verify_isometry", "weighted_trace", "young_conjugate",
]
SUBMODULES = ["algebra", "core_model", "errors", "functorial", "modular", "orliczfn",
              "sampling", "trace_orlicz"]


def test_public_names_are_unchanged():
    assert len(PUBLIC_NAMES) == 72
    assert sorted(ncorlicz.__all__) == PUBLIC_NAMES
    assert ncorlicz.__version__ == "0.1.0"


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_defining_modules_object(name):
    obj = getattr(ncorlicz, name)
    assert obj.__module__.startswith("ncorlicz.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj


def test_star_import_and_dir_list_every_name():
    ns = {}
    exec("from ncorlicz import *", ns)
    assert set(PUBLIC_NAMES) <= set(ns)
    assert all(ns[name] is getattr(ncorlicz, name) for name in PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) | set(SUBMODULES) <= set(dir(ncorlicz))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ncorlicz.no_such_name
    with pytest.raises(ImportError):
        exec("from ncorlicz import no_such_name", {})


_BARE_IMPORT = """
import json, sys
import ncorlicz
before = sorted(m for m in sys.modules if m.startswith("ncorlicz."))
resolved = [getattr(ncorlicz, m).__name__ for m in sys.argv[1:]]
print(json.dumps([before, resolved]))
"""


def test_bare_import_is_lazy_and_submodules_resolve():
    env = {**os.environ, "PYTHONPATH": str(Path(ncorlicz.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _BARE_IMPORT, *SUBMODULES],
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    before, resolved = json.loads(proc.stdout)
    assert before == []
    assert resolved == [f"ncorlicz.{m}" for m in SUBMODULES]


def test_benchmark_tracer_binds_names_that_exist():
    # perfbench/tracer.py wraps these library names at run time; renaming or
    # deleting one breaks the traced benchmark, so it fails here first.
    import importlib.util

    from ncorlicz import _linalg, algebra, functorial, modular, orliczfn

    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name in tracer.ALGEBRA_SPECTRAL:
        assert callable(getattr(algebra, name)), name
    for mod, table in tracer.MODULE_SPANS.items():
        module = importlib.import_module(f"ncorlicz.{mod}")
        for name in table:
            assert callable(getattr(module, name)), f"{mod}.{name}"
    for owner, name in ((_linalg, "hermitian_eigh"), (orliczfn.OrliczFunction, "eval_array"),
                        (modular.ModularOperator, "matrix"), (functorial.Isomorphism, "lift"),
                        (algebra.Functional, "is_positive"),
                        (algebra.Functional, "is_faithful")):
        assert callable(getattr(owner, name)), name


def test_library_factors_with_its_own_kernels():
    # The _linalg kernels keep results independent of the BLAS build; numpy's
    # LAPACK wrappers would not, so the library calls none of them but norm.
    src = Path(ncorlicz.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        found += [f"{path.name}: {m.group(0)}" for m in re.finditer(
            r"\b(?:np|numpy)\.linalg\.(?!norm\b)\w+|\bimport\s+numpy\.linalg\b"
            r"|\bfrom\s+numpy(?:\.linalg\b|\s+import\s[^\n]*\blinalg\b)", text)]
    assert found == []


def _library_reads(names):
    """(module file, top-level definition or None, name) for each place a library
    module other than _linalg imports or reads one of ``names``."""
    src = Path(ncorlicz.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    read = [alias.name for alias in node.names]
                else:
                    read = [getattr(node, "id", None), getattr(node, "attr", None)]
                found += [(path.name, getattr(top, "name", None), n) for n in read if n in names]
    return found


def test_no_private_name_is_imported_across_modules():
    # An underscore name belongs to its module; a module that another one
    # needs names it without the underscore.  `from . import _linalg` imports
    # a module, not a name, and stays allowed.
    src = Path(ncorlicz.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module is not None:
                found += [(path.name, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_only_block_eigh_calls_hermitian_eigh():
    # algebra.block_eigh stores each eigendecomposition on its Element; any
    # other caller outside _linalg would factor a block a second time.
    found = _library_reads({"hermitian_eigh"})
    assert {(path, top) for path, top, _ in found} == {("algebra.py", "block_eigh")}


def test_only_linalg_decides_equal_and_zero_values():
    # _linalg.levels decides every cluster, rank and support, and
    # _linalg.above_floor which singular values the distribution keeps; a
    # module that compared values against these tolerances itself would bring
    # back a second rule.  singular_pairs alone asks for the floor.
    assert _library_reads({"RANK_RTOL", "CLUSTER_RTOL"}) == []
    assert {(path, top) for path, top, _ in _library_reads({"above_floor"})} == {
        ("trace_orlicz.py", "singular_pairs")}


def test_one_merge_builds_every_distribution():
    # trace_orlicz.merged_steps sorts (value, measure) pairs into steps and
    # adds the measures of equal values, for the blocks of an Element and for
    # the pieces of a core element alike, with no tolerance rule.
    # _linalg.levels gives each block's rank in block_lines and the polar
    # factor's rank in polar_decompose, merges eigenvalues only into the lines
    # of eigen_spectrum, and groups the values of two distributions in
    # RearrangementFunction.matches, so no third distribution builder, with a
    # merge of its own, can appear.
    # trace_orlicz.singular_pairs forms every (value, c_i * mass) pair, and a
    # core element merges all its pieces' pairs at once, with no distribution
    # of a piece in between.
    found = _library_reads({"merged_steps", "levels", "singular_pairs", "rearrangement"})
    readers = {("trace_orlicz.py", "singular_value_measures"), ("core_model.py", None),
               ("core_model.py", "core_rearrangement")}
    assert {(path, top) for path, top, name in found if name == "merged_steps"} == readers
    assert {(path, top) for path, top, name in found if name == "singular_pairs"} == readers
    assert [top for path, top, name in found
            if name == "rearrangement" and path == "core_model.py"] == []
    assert {(path, top) for path, top, name in found if name == "levels"} == {
        ("trace_orlicz.py", "RearrangementFunction"), ("algebra.py", "block_lines"),
        ("algebra.py", "eigen_spectrum"), ("algebra.py", "polar_decompose")}


def test_only_algebra_calls_certifies_positive():
    # algebra.certified_positive alone sends blocks to the certificate, knowing
    # what its verdict proves (eigen data stored on an Element decides first);
    # another caller could bypass that or certify a block a second time.
    found = _library_reads({"certifies_positive"})
    assert {(path, top) for path, top, _ in found} == {("algebra.py", "certified_positive")}


def test_only_pow2_scale_takes_a_prescale_exponent():
    # _linalg._pow2_scale is the one exact power-of-two prescale of a block by
    # its largest real or imaginary part; besides it, only _col_norms (per
    # vector) and _hermitian_rows (the eigensolver's Frobenius exponent) call
    # frexp, so no kernel scales its input by a rule of its own.
    src = Path(ncorlicz.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "frexp" in (
                        getattr(node.func, "attr", None), getattr(node.func, "id", None)):
                    found.add((path.name, getattr(top, "name", None)))
    assert found == {("_linalg.py", "_pow2_scale"), ("_linalg.py", "_col_norms"),
                     ("_linalg.py", "_hermitian_rows")}


def test_scalar_rotations_make_no_numpy_call():
    # The eigensolver's and the one-sided kernel's rotations run in scalar
    # Python complex arithmetic on lists; a numpy call per rotation would cost
    # more than the rotation on these block sizes.
    tree = ast.parse((Path(ncorlicz.__file__).parent / "_linalg.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = [(name, node.attr) for name in ("_jacobi_sweep", "_rotation", "_hestenes_sweep")
             for node in ast.walk(defs[name])
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "np"]
    assert found == []


def test_sampling_makes_no_numpy_transcendental_call():
    # Box-Muller takes log, sin and cos from the C library through math, in
    # the scalar and the batched draw alike.  numpy's vectorised versions may
    # round differently, and one moved bit would change every seeded draw.
    tree = ast.parse((Path(ncorlicz.__file__).parent / "sampling.py").read_text(encoding="utf-8"))
    transcendental = {"log", "log1p", "log2", "log10", "exp", "expm1", "exp2", "sin", "cos",
                      "tan", "sinh", "cosh", "tanh", "arctan2", "hypot", "power", "float_power"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.append(f"from {node.module} import")
        elif isinstance(node, ast.Attribute) and node.attr in transcendental:
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in ("np", "numpy"):
                found.append(node.attr)
    assert found == []


def _blas_calls(defs, called_too=()):
    """(name, call) for each BLAS product (a numpy product call or @) in the
    named definitions, nested functions included, and each call named in
    ``called_too``."""
    banned = {"matmul", "dot", "vdot", "inner", "einsum", "tensordot", *called_too}
    found = []
    for name, tree in sorted(defs.items()):
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((name, "@"))
            elif isinstance(node, ast.Call):
                called = getattr(node.func, "attr", getattr(node.func, "id", None))
                if called in banned:
                    found.append((name, called))
    return found


def test_stack_kernels_make_no_blas_call():
    # singular_values_stack and certifies_positive give each block the result
    # of a stack of one, bit for bit; a BLAS product would tie it to the
    # shape of the stack and to the BLAS build.  Their helpers count too.
    tree = ast.parse((Path(ncorlicz.__file__).parent / "_linalg.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    todo, scanned = ["singular_values_stack", "certifies_positive"], set()
    while todo:
        name = todo.pop()
        if name not in scanned:
            scanned.add(name)
            todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name) and n.id in defs]
    assert {"_col_norms", "_tournament"} <= scanned
    assert _blas_calls({name: defs[name] for name in scanned}) == []


def test_step_sum_makes_no_blas_call():
    # Every modular value and norm adds its steps in step order on Python
    # floats: a BLAS dot would tie the norms to the BLAS kernel, and an
    # np.errstate would mean numpy arithmetic that can overflow.
    path = Path(ncorlicz.__file__).parent / "trace_orlicz.py"
    top = {node.name: node for node in ast.parse(path.read_text(encoding="utf-8")).body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    methods = {node.name: node for node in top["RearrangementFunction"].body
               if isinstance(node, ast.FunctionDef)}
    defs = {name: top[name] for name in ("_step_sum", "_luxemburg_from_measures")}
    defs |= {f"RearrangementFunction.{name}": methods[name] for name in ("modular", "luxemburg")}
    assert _blas_calls(defs, called_too={"errstate"}) == []
