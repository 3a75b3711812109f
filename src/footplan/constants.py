"""Numerical tolerances, collected in one place so every stage agrees on them."""

# Polygon validation
CONVEXITY_TOL = 1e-9        # allowed inward cross-product slack (per unit edge product)
MIN_POLYGON_AREA = 1e-10    # polygons at or below this area are degenerate
SLIVER_AREA = 1e-10         # clip outputs at or below this collapse to empty
DUPLICATE_VERTEX_TOL = 1e-9

# Point / half-plane tests are boundary-inclusive with this slack (meters)
BOUNDARY_SLACK = 1e-9

# Rigid transforms
ROTATION_TOL = 1e-9         # orthonormality and det-1 tolerance

# World model
NEAR_VERTICAL_NZ = 1e-6     # |world normal z| at or below this marks a region unsnappable
PIECE_OVERLAP_LIMIT = 1e-8  # max allowed pairwise interior overlap of one region's pieces (m^2)

# Snapping
SNAP_HEIGHT_TIE = 1e-6      # highest-vertex ties closer than this break by lower region id

# Lattice
YAW_DIVISION_TOL = 1e-9     # yaw_resolution must divide a full turn within this
EXPANSION_BOUND_SLACK = 1e-9
MAX_EXPANSION_SCAN = 1e6    # cells x yaw steps a params file may ask one reach-box scan for

# Search / costing
COST_EPS = 1e-12
COST_BOUND_EPS = 1e-9        # margin of the lattice lower bound on a step's cost
REACH_SLACK = 1e-6          # rounding margin on a foothold center's distance to its region hull

# Wiggle QP
QP_FEAS_TOL = 1e-9          # infeasibility detected within this
QP_KKT_TOL = 1e-8           # solution contract on KKT residuals
