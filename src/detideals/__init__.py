"""Exact determinantal ideals, Smith normal forms and codeterminantal surveys."""

from .polyring import (
    MultiPoly,
    UniPoly,
    gcd_poly_q,
    poly_str,
    rational_roots,
    squarefree_part,
)
from .grobner import (
    QX,
    ZX_UNI,
    Ideal,
    Ring,
    RingMismatchError,
    zmulti,
)
from .graphs import (
    DisconnectedGraphError,
    Graph,
    Graph6Error,
    InputError,
    build_matrix,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    distance_matrix,
    enumerate_connected,
    parse_graph6,
    path_graph,
    star_graph,
    write_graph6,
)
from .smith import (
    GroupDescription,
    SnfResult,
    char_poly,
    cokernel,
    delta_bruteforce,
    deltas_q,
    snf_integer,
    snf_poly_q,
)
from .profiles import (
    IdealProfile,
    SizeGuardError,
    VarietyDescription,
    determinantal_ideals,
    divides_in_algebraic_integers,
    evaluate_profile,
    invariant_factors_from_deltas,
    minors_k,
    multivariate_ideals,
    profile_json,
    variety,
)
from .survey import (
    SurveyReport,
    cross_check,
    invariant_key,
    run_survey,
    run_surveys,
    verify_determined_by,
)

__version__ = "0.1.0"
