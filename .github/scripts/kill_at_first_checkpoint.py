"""Run ``repro run`` in-process and SIGKILL it right after its first checkpoint.

Usage::

    PYTHONPATH=src python .github/scripts/kill_at_first_checkpoint.py \
        --policy jsq --rounds 1500 --checkpoint-dir /tmp/killed

The arguments are those of ``repro run``.  ``CheckpointStore.write`` is
wrapped so the process kills itself as soon as the first checkpoint has
committed: the kill lands at the same point on every machine, however
fast the kernel finishes the remaining rounds.  The kill/resume gate
then checks that no result was written and that ``repro resume``
reproduces the uninterrupted run.
"""

import os
import signal
import sys

from repro.cli import main
from repro.runs.checkpoint import CheckpointStore

_write = CheckpointStore.write


def _write_then_die(self, *args, **kwargs):
    manifest = _write(self, *args, **kwargs)
    os.kill(os.getpid(), signal.SIGKILL)
    return manifest


CheckpointStore.write = _write_then_die

if __name__ == "__main__":
    sys.exit(main(["run", *sys.argv[1:]]))
