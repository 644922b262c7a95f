"""weyl4: curvature and integrability-identity checks for almost Hermitian 4-manifolds."""

__version__ = "0.1.0"


class Weyl4Error(Exception):
    """Root of every error the package raises on bad input or a failing
    manifold; the command line maps it to exit code 2."""


from .catalog import (  # noqa: E402,F401
    ManifoldSpec,
    builtin_manifolds,
    conformally_rescaled,
    get_manifold,
    load_manifold_config,
    spec_to_config,
)
from .exprjet import eval_jet, jpartials, parse_expression  # noqa: E402,F401

__all__ = [
    "Weyl4Error",
    "ManifoldSpec",
    "builtin_manifolds",
    "conformally_rescaled",
    "get_manifold",
    "load_manifold_config",
    "spec_to_config",
    "eval_jet",
    "jpartials",
    "parse_expression",
]
