"""Child process that measures one set-up: import ``revcarleson`` (with
numpy, scipy and pyyaml) and make the warm-up call, then print ``ready``.

Usage: python3 setup_probe.py <src-dir> <scratch-dir>
The parent times from spawning this process to reading ``ready``.
"""

import contextlib
import io
import os
import sys

from workloads import WARM_UP_ARGV


def main() -> int:
    src, scratch = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from revcarleson.cli import main as cli_main
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([*WARM_UP_ARGV, "--out",
                         os.path.join(scratch, "warm-up.json")])
    print("ready" if code == 0 else f"warm-up exit {code}", flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
