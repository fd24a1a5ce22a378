"""Every name a module exports resolves, so no deleted function lingers
in an ``__all__``, the package exports exactly its modules' names, and
those names are the listed public surface: a name is added to it or
retired from it only by editing ``PUBLIC_NAMES``."""

import importlib

import pytest

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
