import gazeais


def test_export_list_resolves_once():
    names = gazeais.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(gazeais, n)] == []
    namespace = {}
    exec("from gazeais import *", namespace)
    assert set(names) <= set(namespace)
