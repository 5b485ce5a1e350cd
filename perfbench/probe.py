"""Cold build of the Clebsch-Gordan table that ``transitions`` needs.

Run in a fresh interpreter; prints ``{"cg_table_s": ...}``.  The table is
every <J_S m_J; 2 q | J_D m_J + q> over the |m_I, m_J> product basis of
6S1/2 and 5D5/2, asked for in the order the coupling matrices of the
strength table ask for it, through the public ``clebsch_gordan``.
"""

import json
import time

from ba137qudit.angmom import HalfInt, clebsch_gordan
from ba137qudit.atomstruct import BA137_D52, BA137_S12


def main() -> None:
    ground, excited = BA137_S12, BA137_D52
    t0 = time.perf_counter()
    for twice_q in (-4, -2, 0, 2, 4):
        for _ in range(ground.I.twice + 1):  # one pass per m_I, as the matrices do
            for tmj in range(-ground.J.twice, ground.J.twice + 1, 2):
                if abs(tmj + twice_q) <= excited.J.twice:
                    clebsch_gordan(ground.J, HalfInt(tmj), 2, HalfInt(twice_q),
                                   excited.J, HalfInt(tmj + twice_q))
    print(json.dumps({"cg_table_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
