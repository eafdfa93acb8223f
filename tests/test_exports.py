import gfcap


def test_every_export_resolves():
    missing = [name for name in gfcap.__all__ if not hasattr(gfcap, name)]
    assert missing == []
    assert len(set(gfcap.__all__)) == len(gfcap.__all__)


def test_star_import():
    namespace = {}
    exec("from gfcap import *", namespace)
    assert set(gfcap.__all__) <= set(namespace)
