"""Exception types shared across the package."""


class ConjlabError(Exception):
    """Base class for all conjlab errors."""


class CapExceeded(ConjlabError):
    """Element enumeration (or a derived table) would exceed the configured cap."""


class BudgetExceeded(ConjlabError):
    """A bounded search spent its node budget before completing."""


class EngineFault(ConjlabError):
    """An engine invariant failed: a computed fact contradicts group theory."""


class InvalidPermutation(ConjlabError):
    """Image array is not a bijection on 0..degree-1."""


class ElementNotInGroup(ConjlabError):
    pass


class NotASubgroup(ConjlabError):
    pass


class NotNormal(ConjlabError):
    pass


class NotCoprime(ConjlabError):
    pass


class NotAbelian(ConjlabError):
    pass


class InvalidSpec(ConjlabError):
    """Malformed or out-of-range group construction spec."""


class GrpFormatError(ConjlabError):
    """Malformed .grp text; message names the offending line."""

