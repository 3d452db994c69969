"""Exception types shared across the package."""

from .util import fmt_vec


class SympairError(Exception):
    """Base class for all validation and usage errors raised by sympair."""


class JacobiViolation(SympairError):
    def __init__(self, i, j, k, defect):
        self.triple = (i, j, k)
        self.defect = defect
        super().__init__(f"Jacobi identity fails on basis triple {(i, j, k)}: defect {fmt_vec(defect)}")


class NotInvolution(SympairError):
    def __init__(self, i, defect):
        self.vector = i
        self.defect = defect
        super().__init__(f"sigma^2 != identity on basis vector {i!r}: defect {fmt_vec(defect)}")


class NotAutomorphism(SympairError):
    def __init__(self, i, j, defect):
        self.pair = (i, j)
        self.defect = defect
        super().__init__(f"sigma is not a bracket automorphism on basis pair {(i, j)}: defect {fmt_vec(defect)}")


class NotCartanSplit(SympairError):
    """A user-given adapted basis is not made of sigma eigenvectors, or is not a basis."""


class OrderTooHigh(SympairError):
    pass


class NotInvariant(SympairError):
    pass


class UnknownSymbol(SympairError):
    """A monomial key names a symbol outside the block it is read over."""


class NilradicalUndecidable(SympairError):
    pass


class InvalidIwasawa(SympairError):
    pass


class NotNormalizing(SympairError):
    pass


class NotSigmaStable(SympairError):
    pass


class NotPolarization(SympairError):
    pass


class CoincidentPoints(SympairError):
    pass


class GaugeUnderdetermined(SympairError):
    pass


class ColorArityMismatch(SympairError):
    pass


class TruncationTooLow(SympairError):
    pass


class TruncationWarning(UserWarning):
    """Emitted when a product is only correct modulo unknown higher-order terms."""
