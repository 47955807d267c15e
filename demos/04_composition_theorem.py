"""Composition of cobordisms as a tensor product over the middle algebra.

Checks, with explicit integer matrices, that the state space of a composite
F' o F is isomorphic to Z(F') (x)_{A(M2)} Z(F) as a bimodule, on the
identity example, on the pants example, and on seeded random pairs.
"""

import random

from opencob import (PRESET_HALF, PRESET_TENSOR, compose_iso,
                     disjoint_union, identity_cobordism, open_pants)
from opencob.harness import Bounds, random_composable_pair

print("identity o identity:")
res = compose_iso(identity_cobordism(["b"]), identity_cobordism(["a"]),
                  PRESET_TENSOR)
print(f"   cases {res.case_tags}, superdim {res.superdim()}, "
      f"checks {res.iso.checks}")
print()

print("pants_2 o (identity | identity):")
ii = disjoint_union(identity_cobordism(["a"]), identity_cobordism(["b"]))
res = compose_iso(open_pants(2), ii, PRESET_TENSOR)
print(f"   cases {res.case_tags}, tensor rank {res.iso.source.dim}, "
      f"superdim {res.superdim()}")
print()

print("pants_2 o (pants_2 | identity)  --  iterated tensor products:")
inner = disjoint_union(open_pants(2), identity_cobordism(["c"]))
res = compose_iso(open_pants(2), inner, PRESET_TENSOR)
print(f"   cases {res.case_tags}, superdim {res.superdim()}")
print()

rng = random.Random(2024)
print("seeded random composable pairs:")
for t in range(5):
    fp, f = random_composable_pair(rng, Bounds(max_h=6))
    for grading, name in ((PRESET_TENSOR, "tensor"), (PRESET_HALF, "half")):
        if not (grading.defined_on(f) and grading.defined_on(fp)):
            print(f"   pair {t} [{name}]: parity undefined, skipped")
            continue
        res = compose_iso(fp, f, grading)
        print(f"   pair {t} [{name}]: cases {res.case_tags}, "
              f"superdim {res.superdim()}")
