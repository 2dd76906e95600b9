"""Rotation invariants of four marked fixed points on the sphere.

The library evaluates the integer invariant attached to an ordered
4-tuple of fixed points of an explicitly parametrized orientation
preserving sphere homeomorphism, by three independent methods, plus its
blow-up and periodic-point extensions; and it verifies the full identity
suite the invariant satisfies, including the 3x3 integer matrix
transport of value triples under tuple permutations and the two-variable
table decomposition.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExhausted,
    CoincidentPoints,
    DegenerateCrossing,
    GeometryFailure,
    InconclusiveComputation,
    MixedCoincidence,
    NonIntegerWinding,
    NotFixed,
    ParseError,
    PointOnLoop,
    RelationViolated,
    RotquadError,
    SamplingFailure,
    ScenarioError,
    TangentCondition,
)
from .geometry import (
    DEFAULT_TOL,
    INFINITY,
    MobiusTransform,
    Polyline,
    SpherePoint,
    Tolerances,
    apply_mobius,
    as_sphere_point,
    mobius_normalize,
    path_turns,
    segment_crossing,
    winding_number,
)
from .intersection import loop_class, signed_crossing_sum
from .maps import (
    Compose,
    Identity,
    Inverse,
    MapSpec,
    MobiusConjugate,
    Power,
    RadialProfile,
    RadialTwist,
    eval_map,
    invert_spec,
    iterate_spec,
    rigid_rotation_angle,
)
from .invariant import (
    BlowupEstimate,
    IsotopyTrace,
    MarkedTuple,
    RfEvaluator,
    concatenate_traces,
    connecting_path,
    rf_blowup,
    rf_double_blowup,
    rf_lift,
    rf_loop,
    rf_mixed,
    rf_periodic,
    rf_trace,
    synthesize_twist_trace,
    verify_rf_identities,
)
from .algebra import (
    FunctionTable,
    Permutation,
    act_on_tuple,
    all_permutations,
    build_f_from_g,
    check_relations,
    decompose_g,
    f_triple,
    normalize_g,
    parse_cycles,
    quadratic_table,
    rf_table,
    table_from_function,
    theta,
    theta_action,
    theta_kernel_image,
    verify_triple_symmetry,
)
from .report import CheckRecord, Report, make_record
from .scenario import (
    Scenario,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
)
from .catalog import (
    golden_twist_scenario,
    golden_twist_spec,
    homomorphism_pairs,
    identity_scenarios,
)
