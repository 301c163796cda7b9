"""The package's export list."""

import xwbench


def test_star_import_exports_every_listed_name():
    namespace = {}
    exec("from xwbench import *", namespace)
    assert [name for name in xwbench.__all__ if not hasattr(xwbench, name)] == []
    assert set(xwbench.__all__) <= namespace.keys()
