"""Failure detectors: framework, Υ/Υf, Ω, Ωk, ◇P, anti-Ω, dummies."""

from .anti_omega import AntiOmegaSpec
from .base import (
    ConstantHistory,
    DetectorSpec,
    History,
    LocallyStableHistory,
    ScriptedHistory,
    StableHistory,
    powerset_nonempty,
    seeded_noise,
)
from .dummy import DummySpec
from .eventually_perfect import EventuallyPerfectSpec
from .omega import OmegaSpec
from .registry import detector_names, make_detector
from .omega_k import OmegaKSpec, omega_n
from .upsilon import UpsilonFSpec, UpsilonSpec

__all__ = [
    "AntiOmegaSpec",
    "ConstantHistory",
    "DetectorSpec",
    "DummySpec",
    "EventuallyPerfectSpec",
    "History",
    "LocallyStableHistory",
    "OmegaKSpec",
    "OmegaSpec",
    "ScriptedHistory",
    "StableHistory",
    "UpsilonFSpec",
    "UpsilonSpec",
    "detector_names",
    "make_detector",
    "omega_n",
    "powerset_nonempty",
    "seeded_noise",
]
