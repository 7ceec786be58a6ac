import os
import subprocess
import sys

import se2plan


def test_every_exported_name_resolves():
    missing = [name for name in se2plan.__all__ if not hasattr(se2plan, name)]
    assert missing == []
    assert len(set(se2plan.__all__)) == len(se2plan.__all__)


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from se2plan import *", namespace)
    assert set(se2plan.__all__) <= set(namespace)


def test_import_loads_no_spatial_or_image_module():
    # nor scipy.optimize, whose import alone raised the fuzz bench's peak RSS
    # by 12 %
    code = ("import sys, se2plan, se2plan.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.spatial', 'scipy.ndimage', 'scipy.special', "
            "'scipy.optimize'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"
