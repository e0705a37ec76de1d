"""tools/identity_outputs.py, run on this tree, prints the reference
output byte for byte.

The output is about 40 MB, so only its line count and md5 are kept
here.  A change meant to alter outputs updates both constants and lists
the changed lines in CHANGES.md; any other change must leave them as
they are.  It takes about 20 s on a 2-core Xeon.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINES = 5134
MD5 = "16029871ceb1d8557ca2fb7bb18563ec"


def test_identity_outputs_are_unchanged():
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([path] if path else [])))
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "identity_outputs.py")],
                          env=env, capture_output=True, timeout=600)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.count(b"\n") == LINES
    assert hashlib.md5(done.stdout).hexdigest() == MD5
