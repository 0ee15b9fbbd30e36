"""Independent, obviously-correct references the optimised stack is tested against.

Modules here trade every optimisation for legibility and share as little
code with ``src/repro`` as they can (the field tower and point types, never
the kernel under test).  They are imported by the tests only.
"""
