"""loowit: entanglement detection with local orthogonal observable sets.

Witness constructions, positive-map (reduction-type) separability criteria,
the realignment criterion in correlation form, the Hermitian correlation
matrix test, built-in bound entangled states, and a phase-diagram sweep.
The names below are the ones the README examples use; everything else lives
in the submodules (``linalg``, ``loo``, ``states``, ``witness``,
``criteria``, ``sweep``, ``cli``).
"""

from .criteria import full_report
from .linalg import DimPair, is_psd
from .states import family_rho, family_special, horodecki_rho, load_state, make_state, save_state
from .sweep import run_sweep, write_csv
from .witness import horodecki_ew

__version__ = "0.1.0"
