import clustermatch


def test_every_exported_name_resolves():
    """``from clustermatch import *`` binds every name in ``__all__``."""
    namespace: dict = {}
    exec("from clustermatch import *", namespace)
    assert [name for name in clustermatch.__all__ if name not in namespace] == []
    assert len(set(clustermatch.__all__)) == len(clustermatch.__all__)
