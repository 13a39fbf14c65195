import json
import os
import subprocess
import sys

import flowtree

_LIST_SUBPACKAGES = """
import json, sys
import flowtree
names = [name for name, mod in list(sys.modules.items())
         if name.count(".") == 1 and name.startswith("scipy.")
         and not name.split(".")[1].startswith("_") and hasattr(mod, "__path__")]
print(json.dumps(sorted(names)))
"""


def test_import_loads_no_scipy_subpackage_but_special():
    # each further scipy subpackage (scipy.integrate, scipy.signal, ...)
    # costs tens of MiB and a fraction of a second at import
    src = os.path.dirname(os.path.dirname(os.path.abspath(flowtree.__file__)))
    out = subprocess.run([sys.executable, "-c", _LIST_SUBPACKAGES], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert json.loads(out.splitlines()[-1]) == ["scipy.special"]
