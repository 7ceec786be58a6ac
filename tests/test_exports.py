import se2plan


def test_every_exported_name_resolves():
    missing = [name for name in se2plan.__all__ if not hasattr(se2plan, name)]
    assert missing == []
    assert len(set(se2plan.__all__)) == len(se2plan.__all__)


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from se2plan import *", namespace)
    assert set(se2plan.__all__) <= set(namespace)
