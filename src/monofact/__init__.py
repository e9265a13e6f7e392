"""Exact factorization invariants of finitely generated reduced monoids.

The pieces, bottom up: presentations and factorization search
(:mod:`monofact.monoid`), binomial Groebner bases and lattice ideals
(:mod:`monofact.ideal`), Apery sets (:mod:`monofact.apery`), the ideals
T_S and L_S (:mod:`monofact.same_length`), the equal catenary degree
(:mod:`monofact.catenary`), closed forms for special numerical families
(:mod:`monofact.closed_forms`), and brute-force oracles
(:mod:`monofact.oracle`).  ``monofact.cli`` wires everything to a
command line.
"""

from .apery import AperyResult, apery_is_finite, apery_set
from .catenary import (
    ceq,
    ceq_element_bruteforce,
    ceq_upper_bound_numerical,
)
from .errors import (
    BudgetExceeded,
    CapExceeded,
    CrossCheckError,
    DimensionMismatch,
    EmptyLSet,
    HypothesisViolated,
    InfiniteWithoutLimit,
    InvalidInput,
    InvalidScalar,
    MonoidError,
    NotHomogeneous,
    NotInMonoid,
    NotReduced,
    NotStabilized,
    UndefinedForN2,
)
from .ideal import (
    Binomial,
    BinomialBasis,
    KernelLattice,
    groebner,
    in_ideal,
    kernel_lattice,
    lattice_ideal,
    minimal_generators,
    saturate,
)
from .monoid import (
    GroupElement,
    MonoidPresentation,
    all_factorizations,
    element_from_data,
    is_minimal_generating,
    member,
    numerical,
    presentation,
    presentation_from_data,
    validate_reduced,
)
from .oracle import (
    f2l_bruteforce,
    lset_bruteforce,
    monoid_elements,
    tset_bruteforce,
)
from .orders import GREVLEX, LEX, TermOrder, block, grevlex, lex, parse_order, wgrevlex
from .same_length import (
    MonoidIdeal,
    f2l,
    integers_outside_l_set,
    l_set,
    l_set_complement,
    l_set_complement_is_finite,
    t_set,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
