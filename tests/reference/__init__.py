"""Independent, obviously-correct references the optimised stack is tested against.

Modules here trade every optimisation for legibility and share as little
code with ``src/repro`` as they can (point types and, for the pairing, the
field tower -- itself pinned by ``fp12.py`` -- never the kernel under
test).  They are imported by the tests only.
"""
