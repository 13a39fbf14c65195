import json
import os
import subprocess
import sys

import flowtree

_LIST_SCIPY = """
import json, sys
import flowtree
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; scipy.special alone would pull in
    # numpy.f2py, numpy.ma, numpy.random and numpy.testing at import
    src = os.path.dirname(os.path.dirname(os.path.abspath(flowtree.__file__)))
    out = subprocess.run([sys.executable, "-c", _LIST_SCIPY], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert json.loads(out.splitlines()[-1]) == []
