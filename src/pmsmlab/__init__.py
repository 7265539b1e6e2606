"""pmsmlab: observability analysis and sensorless estimation for PMSM drives."""

from pmsmlab.machine import (
    Frame,
    FrameError,
    FrameVec,
    MachineParams,
    MachineState,
    alphabeta,
    dynamics_alphabeta,
    park,
    torque_alphabeta,
    wrap_angle,
)
from pmsmlab.observability import (
    ModelKind,
    ObservabilityReport,
    det_y1_ipmsm,
    emf_position_speed,
    flux_model_dets,
    hfi_det_y1,
    lie_gradient_stack,
    numeric_rank,
    sample_report,
    spmsm_det_y1,
    spmsm_det_y2,
    spmsm_det_y3_at_sing,
    spmsm_rank_at_standstill,
    trajectory_reports,
)
from pmsmlab.ekf import linearize
from pmsmlab.control import InjectionKind, InjectionSchedule, current_reference, default_gains
from pmsmlab.simulation import (
    MachineKind,
    Scenario,
    SpeedProfile,
    TrajectoryLog,
    run_scenario,
    standstill_study_scenario,
    table_params,
)
from pmsmlab.config import ConfigError, RunConfig, parse_config, render_config
from pmsmlab.report import CSV_COLUMNS, read_csv, summarize, write_csv

__version__ = "0.1.0"
