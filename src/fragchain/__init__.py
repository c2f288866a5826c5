"""fragchain: chain fragmentation distributions, the pruning order on rooted
trees with its closed-form Mobius function, and coupled Monte Carlo checks.

The package loads its modules on first use (PEP 562): `import fragchain`
imports none of them, and `fragchain.X` or `from fragchain import X` imports
only the module that defines X, with what that module imports."""

import importlib

#: submodule -> the public names it defines
_EXPORTS = {
    "errors": "BudgetError ConsistencyError DEFAULT_BUDGET",
    "fragments": "Fragment FragTree catalan chain_fragments "
                 "enumerate_fragmentation_trees fragment_family fragments_of",
    "poset": "MobiusValue covers_below down_set hasse_edges interval leq_p "
             "mobius mobius_inversion_check mobius_recursive "
             "product_factorization",
    "probabilities": "DistTable RateSpec check_transition_spectrum "
                     "dist_continuous dist_continuous_all dist_discrete "
                     "dist_discrete_all dist_discrete_endpoints "
                     "generator_matrix_dist lambda_diff lambda_value "
                     "random_rates transition_matrix_dist transition_rows "
                     "tree_prob_continuous tree_prob_discrete",
    "simulate": "CUT DEFAULT_SEED DEP EMPTY FIRE IND Trajectory "
                "atom_probability aux_consistent batch_tree_counts "
                "child_slot_keys classify_tree coupled_construction "
                "enumerate_atoms estimate_state_prob estimate_tree_prob "
                "estimate_tree_prob_coupled external_slots internal_slots "
                "marginal_internal_law matches_tree sample_aux "
                "simulate_continuous simulate_discrete slot_order substream "
                "support_atoms",
    "trees": "RootedTree enumerate_stump_cut_sets enumerate_tree_shapes "
             "is_stump_cut_set minimal_edges minimal_vertices random_tree "
             "stump_cut_set stump_set subtree",
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    module = name if name in _EXPORTS else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f"{__name__}.{module}")
    globals().update((n, getattr(mod, n)) for n in _EXPORTS[module].split())
    return globals()[name]
