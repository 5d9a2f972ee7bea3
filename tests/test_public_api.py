import koszul_index
from koszul_index import koszul, models, poly


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
    # koszul.shape is the one holder of the exterior-basis convention, and
    # S-pairs and monic bases are formed on integer numerators inside groebner
    removed = [(poly, ("LEX", "MonomialOrder", "DEGREVLEX", "parse_polynomial",
                       "s_polynomial")),
               (poly.Polynomial, ("monic",)),
               (models, ("r_matrix", "l_matrix")),
               (koszul, ("subsets", "removal_sign"))]
    for module, names in removed:
        for name in names:
            assert not hasattr(koszul_index, name), name
            assert not hasattr(module, name), name
            assert name not in koszul_index.__all__
