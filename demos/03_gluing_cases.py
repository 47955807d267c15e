"""Interval self-gluing, case by case.

Runs the verified identification Z(F-bar) = Z(F)/im(E1 + E2) on one
instance of each case of the gluing taxonomy and prints what happened:
which case fired, how many new boundary circles landed fully in S-, the
degree/parity shift, the graded rank table certified by the
Smith-normal-form oracle, and the checks the identification passed.
"""

from opencob import PRESET_TENSOR, self_glue_iso
from opencob.harness import lemma_case_instances
from opencob.surface import format_surface

for case, created, surf, i1, i2 in lemma_case_instances():
    res = self_glue_iso(surf, i1, i2, PRESET_TENSOR)
    print(f"== case {res.case_tag} ({created} new S- circles)")
    print("   before:")
    for line in format_surface(surf).strip().splitlines():
        print("     " + line)
    print("   after:")
    for line in format_surface(res.target_space.surface).strip().splitlines():
        print("     " + line)
    print(f"   degree shift {res.degree_shift}, parity shift {res.parity_shift}")
    print(f"   quotient basis: {', '.join(res.quotient_basis)}")
    table = {f"deg {k[0]}": v[2] for k, v in sorted(res.oracle.by_degree().items())
             if v[2]}
    print(f"   oracle ranks: {table}")
    print(f"   verification: {', '.join(res.checks)}")
    print()
