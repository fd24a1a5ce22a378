"""Every name a module exports resolves, so no deleted function lingers
in an ``__all__``, the package exports exactly its modules' names, and
those names are the listed public surface: a name is added to it or
retired from it only by editing ``PUBLIC_NAMES``, and a public class's
method or attribute only by editing ``PUBLIC_ATTRIBUTES``."""

import dataclasses
import importlib

import pytest

import pgblrc
from pgblrc import IncidenceFileError, PgValidationError, small_field

MODULES = [
    "pgblrc",
    "pgblrc.algebra",
    "pgblrc.bounds",
    "pgblrc.code",
    "pgblrc.errors",
    "pgblrc.geometry",
    "pgblrc.repair",
]

PUBLIC_NAMES = [
    "AVAILABILITY_MODELS", "AvailabilityReport", "BitMatrix", "BlrcCode", "CLASS_GQ",
    "CLASS_NET", "CLASS_PROPER", "CLASS_STEINER", "CatalogEntry", "DEFAULT_SEARCH_GUARD",
    "DegenerateCodeError", "ESTIMATORS", "GRID_FAMILY_KEY", "GuardExceededError",
    "IncidenceFileError", "IncidenceStructure", "NotInformationSetError",
    "NotLocallyRepairableError", "ParameterError", "PgParams", "PgValidationError",
    "RateBounds", "RepairOutcome", "RepairProfile", "RepairVector", "SUPPORTED_FIELD_ORDERS",
    "SmallField", "blocking_set", "bounds_table", "bounds_table_csv", "build_code", "catalog",
    "dual", "elliptic_quadric_gq", "encode", "export_code", "from_text", "grid",
    "hyperoval_gq", "incidence_matrix", "independent_row_indices", "known_gq_parameters",
    "line_repair_sets", "load", "minimum_hitting_set", "nullspace2", "omega_r",
    "rank_bounds", "rate", "rate_lower", "rate_lower_general", "rate_upper",
    "rate_upper_general", "reconstruct", "repair_profile", "repair_symbol", "rref2", "save",
    "simulate_availability", "small_field", "surviving_keys", "symplectic_gq", "to_text",
    "validate_pg", "vartheta",
]

# the non-underscore names of each public class: those it or a package
# base defines, its dataclass fields, and those an instance sets
PUBLIC_ATTRIBUTES = {
    "AvailabilityReport": [
        "all_symbols_success", "cases", "coverage", "mean_retrieved", "model",
        "overall_success", "parameter", "per_symbol_mean_retrieved", "per_symbol_success",
        "seed", "to_csv", "to_json_dict"],
    "BitMatrix": ["cols", "data", "from_bitrows", "rows", "transpose"],
    "BlrcCode": ["gen_cols", "generator", "geometry", "info_set", "k", "n", "parity_check",
                 "pg"],
    "CatalogEntry": ["a", "estimator", "exclusion", "family_r_range", "key", "n",
                     "passes_filter", "r", "rate_estimate", "s", "t", "via_dual"],
    "DegenerateCodeError": [],
    "GuardExceededError": [],
    "IncidenceFileError": ["line_number"],
    "IncidenceStructure": ["canonical_lines", "label", "lines", "lines_through", "num_lines",
                           "num_points"],
    "NotInformationSetError": [],
    "NotLocallyRepairableError": [],
    "ParameterError": [],
    "PgParams": ["alpha", "grid_degenerate", "num_lines", "num_points", "pg_class", "s", "t"],
    "PgValidationError": ["kind", "witness"],
    "RateBounds": ["a", "applicable", "lower", "r", "upper", "vartheta"],
    "RepairOutcome": ["retrieved", "value", "vector"],
    "RepairProfile": ["a", "balanced", "delta", "mode", "n", "per_symbol_a", "per_symbol_delta",
                      "per_symbol_r", "r", "repair_sets", "safe_unavailability",
                      "to_json_dict"],
    "RepairVector": ["helpers", "line", "support", "weight"],
    "SmallField": ["m", "p", "q"],
}

# an instance of each public class whose __init__ sets attributes
INSTANCES = {
    "IncidenceFileError": lambda: IncidenceFileError("bad record", 1),
    "PgValidationError": lambda: PgValidationError("alpha", "bad count"),
    "SmallField": lambda: small_field(2),
}


def _public_attributes(name: str) -> list[str]:
    cls = getattr(pgblrc, name)
    names = {n for c in cls.__mro__ if c.__module__.startswith("pgblrc") for n in vars(c)}
    if dataclasses.is_dataclass(cls):
        names.update(field.name for field in dataclasses.fields(cls))
    if name in INSTANCES:
        names.update(vars(INSTANCES[name]()))
    return sorted(n for n in names if not n.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_the_sorted_union_of_its_modules():
    import pgblrc

    names = [n for m in MODULES[1:] for n in importlib.import_module(m).__all__]  # the six modules
    assert pgblrc.__all__ == sorted(set(names))
    assert len(set(pgblrc.__all__)) == len(pgblrc.__all__)
    assert not [n for n in pgblrc.__all__ if n.startswith("_")]


def test_the_public_surface_is_the_listed_names():
    import pgblrc

    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert pgblrc.__all__ == PUBLIC_NAMES


def test_each_public_class_has_the_listed_attributes():
    classes = [n for n in PUBLIC_NAMES if isinstance(getattr(pgblrc, n), type)]
    assert sorted(PUBLIC_ATTRIBUTES) == classes
    for name, attributes in PUBLIC_ATTRIBUTES.items():
        assert attributes == sorted(attributes), name
        assert _public_attributes(name) == attributes, name
