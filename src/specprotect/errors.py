"""Exception types shared across the library."""


class SpecProtectError(Exception):
    """Base class for all library errors."""


class PoleError(SpecProtectError):
    """A shift landed on (or numerically too close to) an eigenvalue."""

    def __init__(self, shift: float, eigenvalue: float):
        self.shift = shift
        self.eigenvalue = eigenvalue
        super().__init__(
            f"shift {shift!r} is within tolerance of eigenvalue {eigenvalue!r}"
        )


class NotPSDError(SpecProtectError):
    """A matrix required to be positive semi-definite is not."""

    def __init__(self, min_eigenvalue: float):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"matrix is not positive semi-definite "
            f"(smallest eigenvalue {min_eigenvalue:.6e})"
        )


class DegeneratePerturbationError(SpecProtectError):
    """The perturbation B vanishes, so the spectrum never moves."""

    def __init__(self):
        super().__init__(
            "perturbation is zero: the spectrum of A + tB is independent of t, "
            "every point off spec(A) is trivially protected"
        )


class NotProtectedError(SpecProtectError):
    """A precondition required a protected point and none was certified."""

    def __init__(self, shift: float, residual: float):
        self.shift = shift
        self.residual = residual
        super().__init__(
            f"shift {shift!r} is not protected (residual {residual:.3e})"
        )
