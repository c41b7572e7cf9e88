"""Multi-shell diffusion signal fitting in a scale-optimized oscillator basis,
with a residual network regressing fiber orientation distributions.

The package covers the full batch pipeline: direction-set generation,
real even spherical harmonics, the Gaussian-Laguerre q-space basis with
an unsupervised per-dataset scale, a log-space non-negativity transform,
a small residual feed-forward regressor, a multi-tensor phantom for
validation, and the cross-validated experiment harness behind the
``deepshore`` command-line tool.
"""

__version__ = "0.1.0"

from .errors import (
    ContainerFormatError,
    DeepShoreError,
    InvalidArgumentError,
    OptimizationFailureError,
    SaturationError,
    SingularSystemError,
    UndefinedCorrelationError,
)
from .net import (
    MlpModel,
    TrainConfig,
    VoxelDataset,
    build_model,
    forward,
    gradient_check,
    kfold_split,
    train,
)
from .nonneg import NonNegConfig, clamp_log, exp_restore
from .phantom import (
    PhantomConfig,
    PhantomDataset,
    generate_dataset,
)
from .pipeline import (
    EvalReport,
    FodRegressor,
    PipelineConfig,
    compare_subcases,
    run_subcase_experiment,
)
from .sh import (
    acc,
    eval_sh_basis,
    sh_coeff_count,
)
from .shore import (
    QSpaceSamples,
    ShoreFitConfig,
    laguerre,
    optimize_zeta,
    radial_basis_g,
    shore_coeff_count,
    shore_design_matrix,
)
from .sphere import (
    DirectionSet,
    SphereQuadrature,
    gauss_sphere_quadrature,
    generate_uniform_directions,
)
from .stats import bonferroni, summarize_report, wilcoxon_signed_rank
