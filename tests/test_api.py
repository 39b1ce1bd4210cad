import qfibcong


def test_every_exported_name_resolves():
    missing = [name for name in qfibcong.__all__ if not hasattr(qfibcong, name)]
    assert missing == []
    namespace = {}
    exec("from qfibcong import *", namespace)
    assert set(qfibcong.__all__) <= set(namespace)
