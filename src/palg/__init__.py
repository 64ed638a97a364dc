"""Finite distributive p-algebras, their poset duals, and quasivariety
membership at desk scale.

The names below are re-exported lazily (PEP 562): ``import palg``, which
every ``python -m palg.cli`` runs, loads no submodule, and the first of
these names read loads them.
"""

from importlib import import_module

_EXPORTS = {
    "core": """AlgebraMap EnumerationResult FiniteAlgebra InconsistentMethodsError
        ResourceLimitError StructureError ValidationReport Violation enumerate_embeddings
        enumerate_homomorphisms generated_subalgebra is_isomorphic is_subdirectly_irreducible
        make_bn principal_congruence product trivial_algebra validate_palgebra""",
    "duality": """EMPTY_POSET FinitePoset MembershipResult PPMap all_posets
        compose_ppmaps delta delta_map disjoint_union epsilon epsilon_map
        find_surjective_ppmorphism finite_membership max_up posets_isomorphic posets_up_to
        upsets_of validate_poset validate_ppmap""",
    "logic": """Const Join Meet ParseError Quasiequation SatisfactionResult Star Term
        UnboundVariableError Var eval_term format_quasiequation format_term make_ib
        make_positive_diagram make_qb make_splitting_quasieq parse satisfies variety_satisfies""",
    "steiner": """SteinerQuasigroup SteinerSystem collapse_pasting construct_sts
        enumerate_quasigroup_homs fano_system from_quasigroup is_planar make_p1 paste_w
        poset_of to_quasigroup validate_quasigroup validate_steiner""",
    "free": """COVER_POSETS FreeAlgebraResult build_free check_free_qb3
        check_special_structural check_under_each cover_fixture_checks
        random_special_quasiequation""",
}
__all__ = [name for names in _EXPORTS.values() for name in names.split()]
__version__ = "0.1.0"


_LAZY_MODULES: list = []  # (use, exports) of each module that imports lazily


def _lazy(namespace: dict, exports: dict[str, str]):
    """Lazy imports for the module whose globals are ``namespace``, which
    takes the space-separated names ``exports[m]`` from each palg module
    ``m``.  Returns ``(use, __getattr__)``.

    ``use(m, ...)`` imports each ``m`` and binds its names in ``namespace``,
    so that code there can call them; a name already bound, such as a
    wrapper set on the module from outside, is kept.

    ``__getattr__`` (PEP 562) serves a name first read from outside, by a
    tracer or a test that replaces it, say.  It first binds every lazy name
    of every such module, as eager imports would have, so that a wrapper
    set on one module is never picked up by another's later binding.
    """
    names = {name for listed in exports.values() for name in listed.split()}

    def use(*modules: str) -> None:
        for module in modules:
            source = import_module(f"{__name__}.{module}")
            for name in exports[module].split():
                namespace.setdefault(name, getattr(source, name))

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        for bind, listed in _LAZY_MODULES:  # grows as the imports add modules
            bind(*listed)
        return namespace[name]

    _LAZY_MODULES.append((use, tuple(exports)))
    return use, __getattr__


__getattr__ = _lazy(globals(), _EXPORTS)[1]


def __dir__():
    return sorted({*globals(), *__all__})
