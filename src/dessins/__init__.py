"""Dessins d'enfants, finite Moebius groups, and canonical sphere metrics."""

from .dessin import (Dessin, Passport, PermGroup, TriangulatedMap,
                     automorphisms, brute_force_automorphisms,
                     classify_perm_group, genus, parse_dessin, passport,
                     riemann_hurwitz_holds, triangulate)
from .errors import (BranchViolation, CyclicGroupUnsupported, DegenerateTriple,
                     DessinsError, Disconnected, GenusMismatch, InfiniteGroup,
                     MalformedInput, NoConvergence, NotAPermutation,
                     NumericalAmbiguity, OutsideButterfly, PoleEvaluation,
                     StencilOutOfDomain, TrivialGroup, UnsupportedType)
from .finite_groups import (FiniteMoebiusGroup, Orbit, OrbitData,
                            burnside_consistent, closure, conjugate_group,
                            conjugator_well_defined, from_type, is_in_SO3,
                            orbit_analysis, random_conjugator, unitarize)
from .grouptypes import GroupType, classify_census, parse_group_tag
from .metrics import (ConformalMetric, averaged_metric, chart_compatibility_defect,
                      conjugated_metric, curvature, grid_points,
                      hermitian_metric, invariance_defect, metric_distance,
                      metric_grid_rows, orbit_triple_metric, pullback,
                      round_metric, sphere_samples)
from .moebius import (ALL_POINTS, INFINITY, EuclideanSpherePoint,
                      MoebiusTransform, SpherePoint, as_sphere_point,
                      chordal_distance, element_order, fixed_points, from_triple,
                      projective_distance, standard_generators, stereographic,
                      stereographic_inverse)
from .schwarz_christoffel import (TriangleMap, butterfly_belyi, sc_forward,
                                  sc_inverse, triangle_map)

__version__ = "0.1.0"
