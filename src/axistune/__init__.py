"""Servo-axis simulation and cost-driven cascade-gain auto-tuning.

The package models a ball-screw axis driven by a PM synchronous motor
under a three-loop cascade (position P, speed PI, current PI in the
drive), scores closed-loop runs with a weighted tracking cost, and
tunes the cascade gains with grid search, classical rules, or Gaussian-
process Bayesian optimization over a bounded gain box.

Layers, bottom up:

- :mod:`axistune.plant` -- the state-space model of the motor and the
  rigid screw axis it drives.
- :mod:`axistune.refgen` -- setpoints to reference trajectories.
- :mod:`axistune.simloop` -- the sampled cascade simulator.
- :mod:`axistune.metrics` -- step-response metrics and the scalar cost.
- :mod:`axistune.bench` -- the memoized cost oracle tying those together;
  it scores controller triples (kp, kv, ki) on the move it is given.
- :mod:`axistune.gpr` -- Gaussian-process regression (squared-exponential
  kernel, Cholesky solves, marginal-likelihood hyperparameter fit).
- :mod:`axistune.tuner` -- feasible gain grids and their map to
  controller triples, confidence-bound acquisition, the optimization
  loop, and exhaustive grid search.
- :mod:`axistune.baselines` -- relay, ultimate-gain, and ITAE tuning; the
  relay and ultimate-gain probes run the simulator directly.
- :mod:`axistune.presets` / :mod:`axistune.cli` -- the named moves,
  weights and gain boxes, and the command-line front end.

The simulator, the bench, grid search and the classical baselines need
numpy alone; scipy loads the first time a GP hyperparameter fit or
posterior runs, so ``simulate`` and ``grid`` never import it.  The GP
takes only four of ``scipy.linalg``'s LAPACK routines and L-BFGS-B's
compiled core from ``scipy.optimize``; it
draws its scrambled Sobol hyperfit starts in numpy, so no command loads
scipy's statistics subpackage.
"""

from .baselines import (
    TuningError,
    TuningResult,
    itae_tune,
    measure_limit_cycle,
    relay_tune,
    ziegler_nichols,
)
from .bench import TuningBench
from .gpr import (
    Dataset,
    GpHyperparams,
    GpPosterior,
    HyperparamSearchError,
    default_hyper_bounds,
    fit,
    fit_hyperparams,
    nlml,
    predict,
)
from .metrics import CostWeights, MetricVector, cost, extract_metrics, itae
from .plant import LAB_SERVO, ModelError, PlantParams, physical_state_model
from .presets import (
    DEFAULT_PRESET,
    FEASIBLE_PRESETS,
    PRESETS,
    Preset,
    TRAJECTORY_PRESETS,
    WEIGHT_PRESETS,
    get_preset,
    get_weights,
)
from .refgen import (
    PhaseSpan,
    ReferenceProfile,
    TrajectorySpec,
    constant_speed_profile,
    generate_profile,
)
from .simloop import GainVector, SimConfig, SimTrace, simulate, simulate_batch
from .tuner import (
    BoConfig,
    BoState,
    FeasibleSet,
    IterationRecord,
    OracleAbort,
    grid_search,
    lcb,
    load_grid_table,
    next_point,
    run_bo,
    save_grid_table,
)

__version__ = "0.1.0"
