"""
Mechanical verification and fuzzing
===================================

verify_equivalence replays the whole story for one circuit and one
assignment; fuzz_equivalence does it for a seeded stream of random
instances.  certify_strategy fixes one side's scripted policy, lets the
other side play every legal move, and checks that every line it reaches
ends in the scripted side's win.
"""

from catmouse import (
    CAT,
    MOUSE,
    GameInstance,
    build_undirected,
    certify_strategy,
    fuzz_equivalence,
    make_mirror_cat,
    make_true_path_mouse,
    parse_circuit,
    verify_equivalence,
)

circuit = parse_circuit("""\
inputs 2
gate g0 AND i0 i1
output g0
""")

report = verify_equivalence(circuit, "11")
print("bits 11:", "ok" if report.ok else report.violations)
for mode, outcome in sorted(report.outcomes.items()):
    print(f"  {mode}: solver {outcome.value}, scripted {report.scripted[mode].value}")

# The proof's two lemmas as certificates: the marching Mouse wins the true
# board however the Cat plays, and the mirror Cat the false one however the
# Mouse plays.
print()
for bits in ("11", "10"):
    graph, cmap = build_undirected(circuit, bits)
    inst = GameInstance.from_game_graph(graph)
    if bits == "11":
        side, policy = MOUSE, make_true_path_mouse(inst, cmap, circuit, bits)
    else:
        side, policy = CAT, make_mirror_cat(inst, cmap, circuit, bits)
    cert = certify_strategy(inst, side, policy)
    verdict = "certified" if cert.ok else cert.problems[0]
    print(f"  bits {bits}, scripted {side}: {verdict}, {cert.states} states, "
          f"lines of {cert.shortest}-{cert.longest} plies")

# A short fuzzing run.  Failures would come with a reproducer script.
print()
fuzz = fuzz_equivalence(25, seed=2026)
print(f"fuzz: {fuzz.checked} instances checked, "
      f"{len(fuzz.failures)} failures")
for failure in fuzz.failures:
    print(failure.reproducer())
