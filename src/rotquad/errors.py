"""Exception types raised by the geometric and algebraic pipeline."""


class RotquadError(Exception):
    """Base class for every library-specific failure."""


class CoincidentPoints(RotquadError):
    """Two marked points that must be distinct coincide."""


class GeometryFailure(RotquadError):
    """The chosen paths or loops cannot carry the computation, or their
    sampling ran out of budget.  Evaluators retry these with another path
    and report the value inconclusive when every attempt fails."""


class PointOnLoop(GeometryFailure):
    """A reference point sits on (or within tolerance of) a loop edge,
    so the winding number is undefined."""


class NonIntegerWinding(GeometryFailure):
    """An accumulated angle failed to land near an integer multiple of a
    full turn.  Signals numerical trouble, never a legitimate value."""


class DegenerateCrossing(GeometryFailure):
    """Two segments touch at an endpoint, overlap collinearly, or cross
    too close to parallel for the sign to be trusted."""


class SamplingFailure(GeometryFailure):
    """Adaptive refinement could not certify an edge: it still fails after
    the bisection depth limit, or the point budget ran out
    (BudgetExhausted).  Both come from how steeply the image turns, which
    another path or a jitter does not change, so evaluators report either
    at once instead of retrying."""


class BudgetExhausted(SamplingFailure):
    """Adaptive refinement used up ``max_refine_points``, or one evaluation
    of the map alone would take more step applications than that."""


class MixedCoincidence(RotquadError):
    """A marked tuple repeats a point across the two pairs.  These values
    exist only through the blow-up routines, not the loop methods."""


class TangentCondition(RotquadError):
    """The map is not certified rigid at the blow-up point, so the
    direction-circle dynamics cannot be pinned down."""


class ParseError(RotquadError):
    """Malformed cycle notation or scenario text."""


class RelationViolated(RotquadError):
    """A function table fails an identity that a requested operation
    needs as a precondition."""


class ScenarioError(RotquadError):
    """A scenario file or configuration is structurally invalid."""


class InconclusiveComputation(RotquadError):
    """All jitter retries for one check were exhausted, or its refinement
    budget ran out.  Counted as a failure by every verification entry
    point."""


class NotFixed(RotquadError):
    """A declared marked point is not actually fixed by the map."""

    def __init__(self, point, residual):
        self.point = point
        self.residual = residual
        super().__init__(f"declared fixed point {point} moves by {residual:.3e}")
