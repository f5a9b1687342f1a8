"""When is the effective Hamiltonian Hermitian? A numerical adjudication.

Three separate statements get disentangled here:

1. The raw time-dependent order-3 series is visibly non-Hermitian whenever
   the Hamiltonian fails to commute with itself at different times.
2. The zero-frequency, time-independent part of that series is not
   Hermitian in general. The series keeps the lower-limit constants of the
   nested integrals (so that it vanishes exactly at t = 0), and at third
   order those constants pair a tone with its conjugate into
   zero-frequency terms. Even the two-transition lambda model, with
   distinct carriers and every three-frequency sum safely nonzero, keeps a
   small non-Hermitian remainder there.
3. The secular part that ``heff_secular`` returns is read from the
   indefinite-integral frame, where those constants are dropped and a
   term's frequency is the signed sum of its carriers. Its zero-frequency
   terms then come only from the resonant three-sums the frequency report
   classifies, and it is Hermitian on models that pass the report
   (acceptance criterion 4). On carriers with no vanishing three-sum that
   part is the zero matrix, whose defect of 0 shows nothing, so each
   defect is printed beside the norm of the matrix it was measured on.
   Carriers 1, 2, 3 make 1 + 2 - 3 vanish: there the order-3 secular part
   is nonzero and still Hermitian (acceptance criterion 11).

The reordering identity gap tracks statement 1 from a different angle:
moving H(t) from the left of the double integral to the right is only
free of charge for commuting families.
"""

import numpy as np

from effham import (
    MultiToneHamiltonian,
    commutation_probe,
    default_time_grid,
    eq6_gap_grid,
    frequency_report,
    heff_n_timedep,
    heff_secular,
    hermiticity_defect,
    make_model,
)

pairs = [(0.1, 0.7), (0.3, 1.1), (0.9, 2.4)]

# three generic dim-3 tones at carriers 1, 2, 3, couplings of norm 0.3
rng = np.random.default_rng(7)
couplings = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
resonant = MultiToneHamiltonian(
    [(0.3 * h / np.linalg.norm(h), w) for h, w in zip(couplings, (1.0, 2.0, 3.0))]
)
models = {name: make_model(name)
          for name in ("commuting_diag", "noncommuting_two_tone", "raman_lambda")}
models["resonant_1_2_3"] = resonant

for name, H in models.items():
    rep = frequency_report(H)
    result = heff_secular(H, 3)
    ts = np.linspace(0.0, 10.0 / H.min_omega, 32)
    print(f"== {name} (dim {H.dim}, carriers {H.omegas}) ==")
    print(f"  commutation probe          : {commutation_probe(H, pairs):.3e}")
    print(f"  frequency report passes    : {rep.passes}")
    grid_max = hermiticity_defect(result.series.evaluate_grid(default_time_grid(H))).max()
    print(f"  order-3 grid max defect    : {grid_max:.3e}")
    print(f"  order-3 secular defect     : {hermiticity_defect(result.secular):.3e}"
          f"  (norm {np.linalg.norm(result.secular):.3e})")
    constant = heff_n_timedep(H, 3).constant_part()
    print(f"  lower-limit constant defect: {hermiticity_defect(constant):.3e}")
    print(f"  reordering gap, grid max   : {eq6_gap_grid(H, ts).max():.3e}")
    print()

print("the lambda model is the instructive one: distinct carriers, clean")
print("frequency report, yet the constant part of its order-3 series is not")
print("Hermitian. that remainder comes from the integration constants, i.e.")
print("from insisting the expansion vanish exactly at t = 0. the secular part")
print("drops them: in the indefinite-integral frame only resonant carrier sums")
print("reach zero frequency. on the three zoo models none does, so the secular")
print("part is the zero matrix and its defect of 0 shows nothing. carriers 1, 2, 3")
print("resonate (1 + 2 - 3 = 0): their order-3 secular part is nonzero, and its")
print("defect is at rounding level, so it is Hermitian.")
