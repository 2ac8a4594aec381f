"""sheaflearn: learning cellular sheaves on graphs from node-observed data.

Pipeline: block-sparse denoising per node, a closed-form alignment cost for
every node pair, greedy minimum-total-variation edge selection, orthonormal
restriction maps solved for the selected edges, and assembly of the
resulting sheaf Laplacian.
"""

__version__ = "0.1.0"

from .align import (
    EdgeCandidate,
    aligned_distance,
    cross_covariance,
    procrustes_align,
    unaligned_distance,
)
from .core import (
    Cochain0,
    Sheaf,
    SheafLaplacian,
    SheafStructureError,
    assemble_incidence,
    assemble_laplacian,
    coboundary_apply,
    constant_sheaf,
    global_section_dim,
    make_sheaf,
    total_variation,
)
from .denoise import (
    DenoiseConfig,
    Dictionary,
    EmptySupportError,
    SparseCode,
    block_sparse_code,
    code_dataset,
    l21_norm,
)
from .experiments import (
    RunReport,
    SweepSpec,
    emit_plots,
    run_cluster_experiment,
    run_tv_sweep,
)
from .infer import (
    Candidates,
    EdgeSelection,
    build_sheaf,
    enumerate_candidates,
    min_edges_for_connectivity,
    select_topology,
)
from .synth import (
    Dataset,
    NodeData,
    SynthConfig,
    generate_cluster_scenario,
    generate_dataset,
)
