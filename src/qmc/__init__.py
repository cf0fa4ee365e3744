"""Exact proof kernel for a sequent calculus of single quantum circuits.

States carry exact amplitudes in Z[w, 1/sqrt2], so destructive interference
eliminates terms by an exact zero test and Born probabilities are exact reals
of the form (p + q*sqrt2) / 2^k.  Proofs are finite trees of rule
applications over sequents; circuits translate to proofs and back.
"""

from .amplitude import Amplitude, CycloInt, ExactReal
from .calculus import (
    Ax,
    BornAnnotated,
    BornRule,
    CheckReport,
    Coherent,
    Distribution,
    Measure,
    Measured,
    NonMonotonicityViolation,
    OutcomeNotInSupport,
    Prep,
    PrepOutcomeMismatch,
    ProofNode,
    RuleApp,
    Tensor,
    Unitary,
    UnnormalizedState,
    Weaken,
    WrongPremiseShape,
    apply_rule,
    check,
    distribution,
    sample_outcome,
    sequent_text,
)
from .gates import Gate, GateApplication, apply, builtin, is_unitary
from .oracle import FloatState, compare, run_circuit
from .parser import (
    ElaborationError,
    ProofScript,
    SourceError,
    elaborate,
    parse_circuit,
    parse_proof,
    render_circuit,
    render_proof,
    render_script,
)
from .state import BasisState, Superposition, combine, ket, norm_sq, support, tensor
from .translate import (
    Circuit,
    UnsupportedTranslation,
    circuit_to_proof,
    final_distribution,
    final_state,
    proof_to_circuit,
)

__version__ = "0.1.0"

__all__ = [
    "Amplitude",
    "Ax",
    "BasisState",
    "BornAnnotated",
    "BornRule",
    "CheckReport",
    "Circuit",
    "Coherent",
    "CycloInt",
    "Distribution",
    "ElaborationError",
    "ExactReal",
    "FloatState",
    "Gate",
    "GateApplication",
    "Measure",
    "Measured",
    "NonMonotonicityViolation",
    "OutcomeNotInSupport",
    "Prep",
    "PrepOutcomeMismatch",
    "ProofNode",
    "ProofScript",
    "RuleApp",
    "SourceError",
    "Superposition",
    "Tensor",
    "Unitary",
    "UnnormalizedState",
    "UnsupportedTranslation",
    "Weaken",
    "WrongPremiseShape",
    "apply",
    "apply_rule",
    "builtin",
    "check",
    "circuit_to_proof",
    "combine",
    "compare",
    "distribution",
    "elaborate",
    "final_distribution",
    "final_state",
    "is_unitary",
    "ket",
    "norm_sq",
    "parse_circuit",
    "parse_proof",
    "proof_to_circuit",
    "render_circuit",
    "render_proof",
    "render_script",
    "run_circuit",
    "sample_outcome",
    "sequent_text",
    "support",
    "tensor",
]
