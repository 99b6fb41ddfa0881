"""Curvature-adaptive attention for knowledge-graph link prediction.

A small float64 autodiff core (:mod:`catkg.tensor`), closed-form
Poincaré-ball and sphere maps (:mod:`catkg.manifolds`), three
geometry-specific attention branches mixed by a learned per-token router
(:mod:`catkg.attention`), and a link-prediction task head with a
filtered-ranking evaluator (:mod:`catkg.kg`) trained by an AdamW loop
with plateau LR scheduling and entropy-weight annealing
(:mod:`catkg.trainer`). ``catkg.cli`` exposes all of it as the ``catkg``
command.
"""

from .attention import (CatBlock, EuclideanBranch, HyperbolicBranch, Router,
                        SingleGeometryBlock, SphericalBranch, build_block,
                        parameter_count)
from .config import TrainConfig, load_config, parse_config, serialize_config
from .errors import CatkgError
from .kg import (KgModel, Metrics, TripleStore, compose, evaluate,
                 filtered_rank, load_triples, routing_entropy,
                 score_all_tails, smoothed_ce_loss, total_loss)
from .manifolds import (exp0, log0, mobius_add, mobius_scalar_mul,
                        poincare_distance, project_ball, sphere_exp_mu,
                        sphere_log_mu, sphere_project)
from .tensor import (Tape, Tensor, grad_check, load_checkpoint,
                     save_checkpoint, xavier_uniform)
from .trainer import (AdamW, PlateauScheduler, TrainResult, anneal_lambda,
                      export_routing, load_model, save_model, train)

__version__ = "0.1.0"

__all__ = [
    "AdamW", "CatBlock", "CatkgError", "EuclideanBranch", "HyperbolicBranch",
    "KgModel", "Metrics", "PlateauScheduler", "Router", "SingleGeometryBlock",
    "SphericalBranch", "Tape", "Tensor", "TrainConfig", "TrainResult",
    "TripleStore", "anneal_lambda", "build_block", "compose", "evaluate",
    "exp0", "export_routing", "filtered_rank", "grad_check",
    "load_checkpoint", "load_config", "load_model", "load_triples", "log0",
    "mobius_add", "mobius_scalar_mul", "parameter_count", "parse_config",
    "poincare_distance", "project_ball", "routing_entropy", "save_checkpoint",
    "save_model", "score_all_tails", "serialize_config", "smoothed_ce_loss",
    "sphere_exp_mu", "sphere_log_mu", "sphere_project", "total_loss", "train",
    "xavier_uniform",
]
