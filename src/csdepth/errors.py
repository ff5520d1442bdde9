"""Exception types shared across the package, and its one dimension budget."""

from math import comb


class CsdepthError(Exception):
    """Base class for all package-specific errors."""


class InputError(CsdepthError):
    """Invalid argument, malformed input, or violated precondition."""


class ParseError(InputError):
    """Malformed configuration or pairs document."""


class ViolationError(CsdepthError):
    """A mathematical invariant that must hold was observed to fail.

    This is never raised for bad input: it signals either an implementation
    bug or a genuine counterexample, and carries the offending object so it
    can be dumped and inspected.
    """

    def __init__(self, message: str, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


# The highest dimension each kind of exact work runs in by default.  Every
# command reads its limits here and refuses through `check_dimension`.
DIMENSION_LIMITS = {
    "validation": 5,  # the general-position sweep of `validate`
    "depth": 6,  # the minor table of `colourful_depth`
    "exact coverage": 4,  # the cell enumeration of `covers_space`
    "subset depth": 5,  # the cone table of `d_depth`, which has no override
}


def check_dimension(work: str, d: int, allow_high_dimension: bool = False) -> None:
    """Refuse, before it starts, `work` in a dimension beyond its limit in
    `DIMENSION_LIMITS`, unless allowed; the error names the cost."""
    if d <= DIMENSION_LIMITS[work] or allow_high_dimension:
        return
    if work == "validation":
        n = (d + 1) ** 2
        cost = (f"the general-position sweep visits C({n},{d}) = {comb(n, d):,} subsets "
                f"of {d} points, plus up to C({n},{d + 1}) = {comb(n, d + 1):,} determinants "
                "where points are degenerate: about three minutes in general position "
                "in dimension 6, and hours beyond")
    elif work == "depth":
        cost = (f"the minor table reads all {d + 1}^{d + 1} = {(d + 1) ** (d + 1):,} "
                "transversals: about ten seconds and 130 MB in dimension 6, and minutes "
                "and gigabytes beyond")
    elif work == "exact coverage":
        cost = ("cell counts grow combinatorially: expect millions of cells and "
                "hours of work beyond dimension 4")
    else:
        cost = (f"the cone table holds {d + 1}^{d} = {(d + 1) ** d:,} cones, each with two "
                f"bit masks over up to {d * (d + 1) ** (d - 1):,} facet normals: gigabytes")
        raise InputError(f"{work} in dimension {d} is refused ({cost})")
    raise InputError(f"{work} in dimension {d} needs allow_high_dimension=True ({cost})")
