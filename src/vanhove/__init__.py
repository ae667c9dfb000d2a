"""Numerical workbench for an exactly solvable scalar-field model.

A single classical degree of freedom per momentum shell, linearly coupled
to a static source, quantized through Weyl operators at any value of the
semiclassical parameter.  Everything downstream of the grid — states,
dynamics, scattering, semiclassical sweeps, Fock-space cross-checks — is
evaluated through closed-form characteristic functions, so the package
doubles as a reference oracle for approximation schemes.
"""

from .dynamics import (
    VanHoveSystem,
    classical_energy,
    classical_flow,
    evolve_state,
    evolve_weyl,
    ground_energy,
    ground_state_check,
    kms_check,
    kms_window,
    make_system,
)
from .grid import (
    MomentumGrid,
    RadialFunction,
    apply_free_phase,
    from_values,
    inner_product,
    make_grid,
    sample,
    weighted_norm_sq,
    zero_function,
)
from .sources import (
    InfraredClass,
    SourceSpec,
    classify_analytic,
    power_law_gaussian,
    realize,
)
from .states import (
    CharState,
    bochner_gram,
    coherent,
    dirac,
    evaluate,
    gibbs_classical,
    gibbs_quantum,
    gram_matrix,
)
from . import weyl
from .weyl import (
    TrigPolynomial,
    add,
    adjoint,
    antiwick,
    compose,
    identity,
    scale,
    symplectic_form,
)

__version__ = "0.1.0"

__all__ = [
    "CharState",
    "InfraredClass",
    "MomentumGrid",
    "RadialFunction",
    "SourceSpec",
    "TrigPolynomial",
    "VanHoveSystem",
    "__version__",
    "add",
    "adjoint",
    "antiwick",
    "apply_free_phase",
    "bochner_gram",
    "classical_energy",
    "classical_flow",
    "classify_analytic",
    "coherent",
    "compose",
    "dirac",
    "evaluate",
    "evolve_state",
    "evolve_weyl",
    "from_values",
    "gibbs_classical",
    "gibbs_quantum",
    "gram_matrix",
    "ground_energy",
    "ground_state_check",
    "identity",
    "inner_product",
    "kms_check",
    "kms_window",
    "make_grid",
    "make_system",
    "power_law_gaussian",
    "realize",
    "sample",
    "scale",
    "symplectic_form",
    "weighted_norm_sq",
    "weyl",
    "zero_function",
]
# NB: ``vanhove.weyl`` is the submodule; its Weyl-generator factory is
# reached as ``vanhove.weyl.weyl``.
