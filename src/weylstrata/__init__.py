"""Stratification of reductive algebraic groups by 2-special Weyl representations.

The package computes, for the classical and exceptional series, the partition
of a group into strata: locally closed unions of conjugacy classes of fixed
dimension, indexed by bipartitions (classical types) or by atlas rows of
degree/invariant pairs (exceptional types).  It covers the bipartition
combinatorics, the unipotent Jordan-type bijections in every characteristic,
the map from Weyl-group conjugacy classes onto strata, and a command-line
front end.

Every public name is importable from the package itself.  Its defining
submodule is imported on first access to one of its names (PEP 562), so
``import weylstrata`` imports no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_MODULE_OF = {
    name: module
    for module, names in (
        ("atlas", (
            "Atlas", "AtlasRow", "CarterLabel", "RepLabel", "exc_group_from_name", "load_atlas",
            "m_of_class", "parse_carter", "rep_of_class",
        )),
        ("classical", (
            "EigenOrbit", "GroupDescriptor", "OrbitKind", "Series", "SpectralDatum",
            "StratumResult", "classify", "dimension_set", "enumerate_strata", "positive_roots",
            "series_from_name", "stratum_excess", "stratum_of_label",
        )),
        ("enumeration", (
            "count_bipartitions", "enumerate_bipartitions", "enumerate_partitions", "n_invariant_set",
        )),
        ("errors", ("ConsistencyError", "DomainError", "StrataError")),
        ("jordan", ("JordanFamily", "LabeledPartition", "apply_bijection", "codomain", "family_from_name")),
        ("jordan_inverse", ("count_jordan", "enumerate_jordan", "invert_bijection")),
        ("partitions", (
            "Bipartition", "Excess", "Partition", "bp_sum", "has_excess", "n_invariant", "parse_entries",
        )),
        ("verify", ("CheckResult", "check_names", "run_suite")),
        ("weyl", (
            "ClassFiber", "SignedCycleType", "WeylSeries", "WeylType", "enumerate_classes",
            "fixed_space_dim", "jordan_of_class", "parse_class", "strata_fibers", "stratum_of_class",
            "weyl_series_from_name",
        )),
    )
    for name in names
}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
