import ast
import inspect
import os

import koszul_index
from koszul_index import koszul, models, multiplicity, poly, suites


def test_every_exported_name_resolves():
    assert len(set(koszul_index.__all__)) == len(koszul_index.__all__)
    for name in koszul_index.__all__:
        assert getattr(koszul_index, name) is not None, name
    namespace = {}
    exec("from koszul_index import *", namespace)
    assert set(koszul_index.__all__) <= set(namespace)


def test_removed_names_stay_gone():
    # grevlex is the only term order, one polynomial parses as a
    # one-element system, the regular-case transforms are private,
    # koszul.shape is the one holder of the exterior-basis convention,
    # S-pairs and monic bases are formed on integer numerators inside
    # groebner, and a Polynomial holds the parser's numerators with no QQi
    # ring arithmetic, so the generators write their systems as text
    removed = [(poly, ("LEX", "MonomialOrder", "DEGREVLEX", "parse_polynomial",
                       "s_polynomial")),
               (poly.Polynomial, ("monic", "zero", "constant", "variable", "_coerce",
                                  "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                                  "__mul__", "__rmul__", "__pow__")),
               (suites, ("compose", "_combine")),
               (models, ("r_matrix", "l_matrix")),
               (multiplicity, ("multiplicity_table",)),
               (koszul, ("subsets", "removal_sign"))]
    for module, names in removed:
        for name in names:
            assert not hasattr(koszul_index, name), name
            assert not hasattr(module, name), name
            assert name not in koszul_index.__all__


_REPORT_RECORDS = {"GlobalMultiplicityTable", "IndexReport", "ReciprocityReport"}


def test_no_public_callable_takes_a_tolerance():
    # the float kernel cut is one fixed constant of spectrum's float split,
    # and exact or float is decided by spectrum.joint_eigenvalues alone
    for name in koszul_index.__all__:
        obj = getattr(koszul_index, name)
        fns = [obj]
        if isinstance(obj, type):  # and its methods
            fns += [fn for _, fn in inspect.getmembers(obj, callable)]
        for fn in filter(callable, fns):
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                continue
            assert "tol" not in params, name
            # a report record names the backend that ran; nothing takes one to run
            assert "backend" not in params or name in _REPORT_RECORDS, name


def _sites(match):
    """(module, enclosing function) of every node of src/ that `match` accepts."""
    sites = set()
    package = os.path.dirname(koszul_index.__file__)

    def visit(node, module, func):
        if match(node):
            sites.add((module, func))
        for child in ast.iter_child_nodes(node):
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if inner else func)

    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                visit(ast.parse(handle.read()), name[:-3], None)
    return sites


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_one_function_decides_exact_or_float():
    # only spectrum.joint_eigenvalues catches IrrationalSpectrum and runs
    # the float split; every other caller asks it
    calls = _sites(lambda n: isinstance(n, ast.Call) and "float_spectrum" in _names(n.func))
    catches = _sites(lambda n: isinstance(n, ast.ExceptHandler) and n.type is not None
                     and "IrrationalSpectrum" in _names(n.type))
    assert calls == catches == {("spectrum", "joint_eigenvalues")}


def test_spectrum_computes_no_float_outside_the_float_split():
    # the exact route finds, lifts and reads roots on ints: complex(, float(,
    # cmath and math.ldexp appear only in float_spectrum and its _float_ helpers
    def floating(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("complex", "float")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return "cmath" in {getattr(node, "module", None), *(a.name for a in node.names)}
        return (isinstance(node, ast.Name) and node.id == "cmath"
                or isinstance(node, ast.Attribute) and node.attr == "ldexp")

    funcs = {func for module, func in _sites(floating) if module == "spectrum"}
    assert funcs, "the matcher finds the float split's own floats"
    assert all(func == "float_spectrum" or func.startswith("_float_") for func in funcs), funcs
