"""Qubit states as three classical coin probabilities.

A qubit density matrix is in bijection with the probabilities (p1, p2, p3)
of three classical coins landing "up"; superposition becomes a nonlinear
addition rule for the triples, and every state has a triada of Malevich
squares as its picture.

The public names load on first use: ``import coinqubit`` imports no
submodule, and ``coinqubit.fidelity`` imports ``coinqubit.states`` only.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_MODULE_OF = {
    name: module
    for module, names in (
        ("errors", "CoinQubitError DomainError ClassicalStateError NotPureError "
                   "NotOrthogonalError DegenerateSuperpositionError "
                   "DegeneratePhaseStateError InsufficientDataError"),
        ("states", "ProbabilityTriple DensityMatrix2 Spinor2 prob_to_density "
                   "density_to_prob is_quantum purity fidelity coin_phase "
                   "prob_to_spinor spinor_to_prob complex_to_coins coins_to_complex"),
        ("observables", "CoinObservable classical_means second_moments quantum_mean"),
        ("superposition", "SuperpositionWeights SuperpositionResult superpose_oracle "
                          "superpose_general superpose_orthogonal superpose_spinor "
                          "superpose_checked assemble_projector_sum "
                          "delta_decomposition orthogonal_partner "
                          "unit_normalization_phase weights_for_phase"),
        ("malevich", "MalevichTriada triada_sides render_svg"),
        ("tomography", "FlipRecord EstimateReport sample_outcomes sample_flips "
                       "estimate run_experiment write_flips reconstruct"),
    )
    for name in names.split()
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
