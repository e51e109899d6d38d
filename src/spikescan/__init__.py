"""Spiking state-space forecasting: quantized training, spiking inference, energy accounting."""

from .activations import (pow2_silu, pow2_softplus, verify_deviation_bounds)
from .dataset import (SeriesDataset, WindowSplits, load_csv, make_coupled_sinusoids,
                      make_windows, write_csv)
from .energy import EnergyReport, EnergyTable, OpCounters, compare_ann_energy, profile
from .metrics import r2, rrse
from .quantize import Quantizer
from .ssm import ForecastModel, ModelConfig, selective_scan
from .train import (Adam, TrainConfig, TrainResult, apply_threshold_scaling,
                    convert_to_snn, load_checkpoint, save_checkpoint, train)

__version__ = "0.1.0"

__all__ = [
    "Adam", "EnergyReport", "EnergyTable", "ForecastModel", "ModelConfig",
    "OpCounters", "Quantizer", "SeriesDataset", "TrainConfig",
    "TrainResult", "WindowSplits", "apply_threshold_scaling",
    "compare_ann_energy", "convert_to_snn", "load_checkpoint", "load_csv",
    "make_coupled_sinusoids",
    "make_windows", "pow2_silu", "pow2_softplus", "profile", "r2", "rrse",
    "save_checkpoint", "selective_scan", "train", "verify_deviation_bounds",
    "write_csv",
]
