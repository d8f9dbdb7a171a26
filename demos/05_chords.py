"""Flow chords: how fast a translation-class flow connects the two circles.

The flip side of a positive minimax bracket invariant p: every 1-form in the
class moves some point of X = {p1 = 0} onto X' = {p1 = 1/2} within time 1/p.
For the constant representative of the half-translation class the flow is the
rigid drift at speed 1/2, so the earliest chord takes exactly t* = 1 = 1/p.
"""

import rotvec as rv
from rotvec.trig import TrigPoly

space = rv.torus(1)
X = rv.momentum_level_torus(space, [0.0])
Xp = rv.momentum_level_torus(space, [0.5])

## the constant representative: rigid drift ----------------------------------
alpha = rv.one_form([0.0, 0.5])
chord = rv.chord_search(alpha, space, X, Xp, t_max=2.0, h=1e-2)
print(f"constant (1/2)[dq1] flow: t* = {chord.t_star:.12f}")
print(f"start {rv.wrap(chord.start, space)} -> end {rv.wrap(chord.end, space)}")

## doubling the class halves the travel time ---------------------------------
chord2 = rv.chord_search(rv.one_form([0.0, 1.0]), space, X, Xp, t_max=2.0, h=1e-2)
print(f"doubled class [dq1]:      t* = {chord2.t_star:.12f}")

## a potential reshapes the form within its class -----------------------------
g = TrigPoly.wave(2, 0.03, [0, 1], 0, "sin")
wavy = rv.ClosedOneForm(rv.CohomologyClass([0.0, 0.5]), g)
chord3 = rv.chord_search(wavy, space, X, Xp, t_max=4.0, h=1e-2)
print(f"with a potential wiggle:  t* = {chord3.t_star:.12f} "
      "(class unchanged, chord time shifts within the budget)")

## a flow pointing along the circles never crosses ----------------------------
parallel = rv.one_form([1.0, 0.0])
print(f"class [dp1] (flow along q1): "
      f"{rv.chord_search(parallel, space, X, Xp, t_max=10.0, h=1e-2)}")
