"""Exception types shared across the package."""


class ParameterOutOfDomain(ValueError):
    """A constructor parameter violates its domain constraint (|a| < 1, |tau| = 1)."""


class PoleEncountered(ArithmeticError):
    """A Moebius map was evaluated at (or too close to) its pole 1/conj(a)."""


class DenominatorDegenerate(ArithmeticError):
    """The rational form's denominator vanished; the point is far outside the domain."""


class SingularJacobian(ValueError):
    """A 2x2 Jacobian with |det| below threshold cannot be inverted."""


class NotNormalized(ValueError):
    """An origin Jacobian is not in the normalized form [[1, b], [0, d]]."""


class NotWeightedHomogeneous(ValueError):
    """A candidate map has monomials outside the rotation-commuting pattern.

    `violations` lists the offending (component, j, k) triples.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"offending monomials: {self.violations}")


class PreconditionUnmet(ValueError):
    """An operation's documented precondition does not hold for the given input."""


class NotOnRoyalVariety(PreconditionUnmet):
    """The point is not on the royal variety {(2*lam, lam**2)}.

    A PreconditionUnmet: the certify pipeline needs the origin image on it.
    """
