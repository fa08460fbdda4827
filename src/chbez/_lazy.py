"""numpy, imported when a module first reads one of its attributes.

A module binds ``np = _lazy.Numpy(globals())``, a stand-in.  Its first
attribute read imports numpy, unless it is loaded already, and binds it over
the stand-in in the module's namespace, so only that one read takes the
detour and the module's code reads numpy directly ever after.  A command
that needs no numpy result, and every refusal of a flag or a spec, thus ends
without importing numpy, the largest import by far (60-80 ms of a 140 ms
one-shot process on a 2-vCPU x86-64 host).

In a CLI process ``chbez.cli._process_entry`` sets :data:`FREEZE`: numpy
then loads with the cyclic garbage collector off, and what its import made
is frozen, as the entry does with the package's own modules.
"""

import gc
import sys

FREEZE = False


class Numpy:
    """Stands in for numpy in ``namespace`` until an attribute is read."""

    def __init__(self, namespace: dict):
        self.namespace = namespace

    def __getattr__(self, name):
        if FREEZE and "numpy" not in sys.modules:  # the collector is on in the command
            gc.disable()
            import numpy

            gc.freeze()
            gc.enable()
        import numpy

        self.namespace["np"] = numpy
        return getattr(numpy, name)
