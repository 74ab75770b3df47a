"""The reference desk-scale pipeline, end to end.

Hub: the 2-simplex with first weight capped at 0.6, step 0.01.
Spoke: the full 2-simplex.  The tracking relation (tolerance 0.05) turns
the hub into a menu of 4,485 spoke candidates; the 6 bps fee cap narrows
it to 3,511.  Determinizing with the squared-norm regularizer then picks
one spoke per hub, whose graph stays inside the tracking relation.

Run:  python scripts/worked_example.py
"""

import numpy as np

from hubspoke.dots import action, determinize_relation, verify_action_laws
from hubspoke.geometry import (
    LinearFunctional,
    enumerate_simplex,
    parse_constraint,
    restrict,
)
from hubspoke.relations import build_relation

FEE = LinearFunctional((10, 5, 0), units="bps")


def main():
    amb = enumerate_simplex(2, 100)
    hub = restrict(amb, [parse_constraint("x1<=0.6", 3)])
    print(f"hub: {hub.describe()}")

    track = build_relation(hub, amb, "track", epsilon=0.05)
    menu = action(hub, track)
    print(f"after {track.describe()}: {len(menu)} spoke candidates")

    cap = build_relation(amb, amb, "fee_cap", tau=6, functional=FEE)
    menu = action(menu, cap)
    print(f"after {cap.describe()}: {len(menu)} spoke candidates")
    print("narrowing sequence: " + " -> ".join(menu.provenance))

    f = determinize_relation(hub, track, alpha=1.0)
    norms = [float((f.evaluate(p) ** 2).sum()) for p in hub.points[::500]]
    print(f"determinized map: {len(hub)} hub points -> "
          f"min-norm spokes (sampled ||y||^2: {np.round(norms, 3).tolist()})")
    inside = all(track.contains_vectors(x.to_array(), img)
                 for x, img in zip(f.domain.points, f.images))
    print(f"graph of the selection stays inside the tracking relation: {inside}")

    amb20 = enumerate_simplex(2, 20)
    hub20 = restrict(amb20, [parse_constraint("x1<=0.6", 3)])
    laws = verify_action_laws(
        hub20,
        build_relation(amb20, amb20, "track", epsilon=0.10),
        build_relation(amb20, amb20, "turnover", kappa=0.3),
        wide=amb20,
        projector=build_relation(amb20, amb20, "fee_cap", tau=6, functional=FEE))
    print(f"action laws at step 0.05 ({len(hub20)} hub points): {laws.detail}")


if __name__ == "__main__":
    main()
