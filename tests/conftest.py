import numpy as np
import pytest

from swimlap.params import get_animal
from swimlap.pipeline import RunConfig, analyze_trial
from swimlap.simulator import LapScenario, preset_scenario, simulate


def make_config(animal, **kwargs) -> RunConfig:
    defaults = dict(inputs=("unused.csv",), output_dir="unused", animal=animal)
    defaults.update(kwargs)
    return RunConfig(**defaults)


@pytest.fixture(scope="session")
def default_lap():
    """One zero-noise lap: 30 m straights, 1.5 m semicircle, 4 m/s cruise."""
    scenario = LapScenario(animal=get_animal("TT01"))
    truth, tag = simulate(scenario)
    result = analyze_trial(tag, make_config(scenario.animal))
    return scenario, truth, tag, result


@pytest.fixture(scope="session")
def preset_trials():
    """Analyzed 8-lap trials for the three study-animal presets."""
    out = {}
    for name in ("TT01", "TT02", "TT03"):
        scenario = preset_scenario(name)
        truth, tag = simulate(scenario)
        result = analyze_trial(tag, make_config(scenario.animal))
        out[name] = (scenario, truth, tag, result)
    return out


@pytest.fixture(scope="session")
def trial_16lap():
    """Simulated tag of a zero-noise 16-lap TT03 trial (25,213 IMU rows)."""
    _, tag = simulate(preset_scenario("TT03", n_laps=16))
    return tag


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
