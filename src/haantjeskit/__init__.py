"""Exact symbolic toolkit for Nijenhuis/Haantjes torsions of operator
fields on flat space, Killing-tensor families of second-order
superintegrable systems, and the polynomial ideals cutting out their
Haantjes-zero members."""

__version__ = "0.1.0"

from .symalg import (Poly, VarId, monomial, parse_poly, var,
                     LogarithmicTerm, NonInvertibleSubstitution, ParseError)
from .tensor import TensorField, hessian_operator, partial_derivative
from .haantjes import (as_operator, conservation_check, haantjes,
                       is_haantjes_zero, nijenhuis)
from .killing import (KillingFamily, PotentialSpec, compatible_family,
                      killing_residual, killing_space)
from .ideals import (Ideal, MonomialOrder, UnitIdeal, ZeroIdeal, buchberger,
                     haantjes_zero_ideal, hilbert_dimension, ideal_equal,
                     linear_factor, member, normal_form, radical_member)
from .mechanics import (DegenerateK, NonUniqueSolution, NotCompatible,
                        abundant_haantjes, build_integral, condition_6b,
                        functional_independence, hamiltonian, poisson,
                        structural_tensor_at)
from .checks import catalog
