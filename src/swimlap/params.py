"""Animal parameters and physical constants for the swimming energetics model.

Every quantity is SI. Derived quantities (wetted surface area, added mass,
power normalization constant) are computed once at construction so that all
downstream modules agree on them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

# Seawater density used by the added-mass and drag models, kg/m^3.
RHO_SEAWATER = 1030.0
# Kinematic viscosity of seawater near 20 degC, m^2/s.
NU_SEAWATER = 1.044e-6
# Tissue density used to default body volume from mass, kg/m^3.
TISSUE_DENSITY = 1025.0

GRAVITY = 9.81


def check_numbers(obj, names, ok, need: str, prefix: str = "") -> None:
    """Reject the first of ``names`` that is not a number passing ``ok``.

    A bool is not a number, and NaN fails every range.
    """
    for name in names:
        value = getattr(obj, name)
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not ok(value)):
            raise ValueError(f"{prefix}{name} must be {need}, got {value!r}")


def unknown_keys(mapping, allowed, prefix: str = "") -> list[str]:
    """The keys of ``mapping`` outside ``allowed``, each as text after
    ``prefix``, in text order: a YAML key may be a number."""
    return sorted(f"{prefix}{k}" for k in mapping if k not in allowed)


@dataclass(frozen=True)
class AnimalParams:
    """Morphometrics and model constants for one animal.

    Parameters
    ----------
    mass : float
        Body mass, kg.
    length : float
        Body length, m.
    p_rmr : float
        Resting metabolic power, W.
    volume : float, optional
        Body volume, m^3. Defaults to ``mass / 1025`` (near-neutral tissue
        density).
    body_diameter : float, optional
        Characteristic body diameter used for the submergence ratio of the
        wave-drag factor, m. Defaults to ``0.2 * length``.
    eta_ms : float
        Chemical-to-mechanical conversion efficiency.
    eta_sp : float
        Mechanical-to-propulsive conversion efficiency.
    rho : float
        Water density, kg/m^3.
    nu : float
        Kinematic viscosity of the water, m^2/s.
    g : float
        Gravitational acceleration, m/s^2.
    """

    mass: float
    length: float
    p_rmr: float
    volume: float | None = None
    body_diameter: float | None = None
    eta_ms: float = 0.25
    eta_sp: float = 0.85
    rho: float = RHO_SEAWATER
    nu: float = NU_SEAWATER
    g: float = GRAVITY

    def __post_init__(self) -> None:
        def positive(names):
            check_numbers(self, names, lambda v: 0.0 < v < math.inf,
                          "a finite number > 0", prefix="animal.")

        positive(("mass", "length"))  # the defaults below derive from them
        if self.volume is None:
            object.__setattr__(self, "volume", self.mass / TISSUE_DENSITY)
        if self.body_diameter is None:
            object.__setattr__(self, "body_diameter", 0.2 * self.length)
        positive(("p_rmr", "volume", "body_diameter", "rho", "nu", "g"))
        check_numbers(self, ("eta_ms", "eta_sp"), lambda v: 0.0 < v <= 1.0,
                      "in (0, 1]", prefix="animal.")

    @property
    def surface_area(self) -> float:
        """Wetted surface area from the mass scaling 0.08 * m^0.65, m^2."""
        return 0.08 * self.mass ** 0.65

    @property
    def added_mass(self) -> float:
        """Entrained-fluid mass 0.4 * rho * V, kg."""
        return 0.4 * self.rho * self.volume

    @property
    def effective_mass(self) -> float:
        """Body mass plus added mass, kg."""
        return self.mass + self.added_mass

    @property
    def norm_constant(self) -> float:
        """Power normalization constant m * g^1.5 * L^0.5, W."""
        return self.mass * self.g ** 1.5 * self.length ** 0.5


# Study animals: mass, length, resting metabolic power.
ANIMALS: dict[str, AnimalParams] = {
    "TT01": AnimalParams(mass=156.2, length=2.24, p_rmr=347.9),
    "TT02": AnimalParams(mass=244.7, length=2.54, p_rmr=442.9),
    "TT03": AnimalParams(mass=142.6, length=2.20, p_rmr=317.6),
}


def get_animal(name: str) -> AnimalParams:
    """Look up a named preset animal."""
    if name not in ANIMALS:
        raise ValueError(
            f"unknown animal {name!r}; presets: {sorted(ANIMALS)}")
    return ANIMALS[name]


def animal_from(value) -> AnimalParams:
    """The animal a config's ``animal`` key gives: a preset name, or a
    mapping of :class:`AnimalParams` fields."""
    if isinstance(value, str):
        return get_animal(value)
    if isinstance(value, dict):
        unknown = unknown_keys(value, AnimalParams.__dataclass_fields__,
                               "animal.")
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        return AnimalParams(**value)
    raise ValueError(f"animal must be a preset name {sorted(ANIMALS)} or a "
                     f"mapping of AnimalParams fields, got {value!r}")
