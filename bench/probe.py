"""Start-up split of one CLI invocation, measured in a fresh process.

Usage: python3 probe.py <hpoincare argv...>. Prints one JSON line: the
monotonic time at which the interpreter reached this script (the caller
subtracts its launch time), the seconds spent in `import hpoincare.cli`,
and the seconds `cli.main(argv)` took in-process with stdout discarded.
"""

import time

START = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

t0 = time.monotonic()
import hpoincare.cli as cli  # noqa: E402

t1 = time.monotonic()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
t2 = time.monotonic()
print(json.dumps({"start": START, "import_s": t1 - t0, "main_s": t2 - t1, "exit": code}))
sys.exit(code)
