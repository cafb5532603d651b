"""Scenario corpus: registry shape, determinism, hashing."""

import pytest

from repro.bench import corpus
from repro.bench.corpus import (
    ARCHITECTURE_REGIMES,
    CORPUS,
    FAMILIES,
    get_scenario,
    iter_scenarios,
    scenario,
    scenario_hash,
)
from repro.errors import ConfigurationError
from repro.io import instance_to_dict

#: Cross-version determinism pin: the same ``(family, params, seed)``
#: must materialize to a bit-identical instance document on every run,
#: machine and supported Python version.  If one of these changes, the
#: instance *content* changed — every stored envelope and perfbench
#: reference of that instance is invalidated and the corpus needs a
#: version bump, not a test edit.
GOLDEN_HASHES = {
    "tgff/12":
        "1a8c496b7480f54703e09affb55e64b24e9c02e28caa8d4d27715486f72f91be",
    "tgff/36":
        "ca6387d9ca6d11a1de6f1e52f841b5c0374c699a3950d7c1f8bcecbcaccff090",
    "tgff/60":
        "6eb706418995fa21add1855acd72dd547b1ccf68981cbf33b2029cb1b4f7043b",
    "tgff/120":
        "42830d147b2644b2bce3e0a5817011121d411e14ff4bbf23090437549ba54460",
    "layered/24":
        "a4853cd6a1e91e247082d757279bb1cba8187d66546d82f72256e0157e3f07b2",
    "layered/48":
        "37a795886dd1ad7e2497fc27cd11de91d38fe6367fb039c87dcaba1404f2eef6",
    "series_parallel/24":
        "2e0117f6ab9ce0365d360ae7c2605eec47889ef2b8f03577cf1128fe642d12e6",
    "series_parallel/48":
        "3104acab9fed4f66deaef595116e826eb09757bb94bc3a4f707f13089bd31ff5",
    "fork_join/24":
        "52a638c28bfee435a7e12e9a87e1e777fb661bb1abb948615390f109dd1b7ff4",
    "fork_join/48":
        "d182780a6fb74f42704a08807a5a6585dcb62d7ac1b8a1a11b0da2328034488f",
    "motion/2000":
        "3f74890ca02b353777a2fa08eeeb6295859592595155ce0ea32d9fb3fee173b1",
    "motion/800":
        "957fc8ab1d9cef94a28f2b8e0def3025dbb7fb6d6f6fa4ffb26a46685cfafe16",
    "motion/asic_rich":
        "ab701791e0cd40673b6144a76812581f4721f837484b1166875eba2589866f11",
    "motion/bus_starved":
        "bc7d295d9f0c7e694a08709d59bffb03fe6c8a0bbbfd7b6d1ab1c22b350133c0",
    "motion/rc_heavy":
        "6494b33fced238fca59625646692595c54851cc924e9f3b1860fbab9654f90a2",
}


class TestRegistry:
    def test_families_cover_all_topologies(self):
        assert {"motion", "tgff", "layered", "series_parallel",
                "fork_join"} <= set(FAMILIES)

    def test_corpus_is_nonempty_and_named_uniquely(self):
        assert len(CORPUS) >= 20
        assert len({s.name for s in CORPUS.values()}) == len(CORPUS)

    def test_family_filter(self):
        tgff = list(iter_scenarios(family="tgff"))
        assert tgff and all(s.family == "tgff" for s in tgff)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scenario("no/such/scenario")

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario("no_such_family")

    def test_duplicate_family_rejected(self):
        with pytest.raises(ConfigurationError):
            corpus.register_family("motion")(lambda seed: None)


class TestMaterialization:
    def test_build_sets_name_and_metadata(self):
        entry = get_scenario("tgff/36")
        instance = entry.build()
        assert instance.name == "tgff/36"
        assert instance.metadata["family"] == "tgff"
        assert instance.metadata["seed"] == entry.seed
        assert instance.metadata["params"] == {"num_tasks": 36}
        assert len(instance.application) == 36
        assert instance.deadline_ms is not None
        instance.application.validate()
        instance.architecture.validate()

    def test_regimes(self):
        asic_rich = get_scenario("motion/asic_rich").build()
        assert len(asic_rich.architecture.asics()) == 2
        bus_starved = get_scenario("motion/bus_starved").build()
        assert bus_starved.architecture.bus.rate_kbytes_per_ms == 5.0
        rc_heavy = get_scenario("motion/rc_heavy").build()
        assert len(rc_heavy.architecture.reconfigurable_circuits()) == 2

    def test_unknown_regime_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario("tgff", num_tasks=12, regime="quantum").build()

    def test_regime_list_is_exhaustive(self):
        for regime in ARCHITECTURE_REGIMES:
            instance = scenario(
                "tgff", num_tasks=12, regime=regime
            ).build()
            instance.architecture.validate()


class TestDeterminism:
    def test_rebuild_is_bit_identical(self):
        entry = get_scenario("series_parallel/48")
        assert instance_to_dict(entry.build()) == instance_to_dict(entry.build())
        assert scenario_hash(entry) == scenario_hash(entry)

    def test_different_seeds_differ(self):
        a = scenario("tgff", seed=1, num_tasks=20)
        b = scenario("tgff", seed=2, num_tasks=20)
        assert scenario_hash(a) != scenario_hash(b)

    def test_golden_hashes(self):
        """Same seed -> identical instance hash, pinned across versions.

        Guards against global-``random`` leakage anywhere under
        ``model.generator`` / ``graph.generators`` / ``io`` — any
        nondeterminism or content drift changes these digests.
        """
        for name, expected in GOLDEN_HASHES.items():
            assert scenario_hash(get_scenario(name)) == expected, name

    def test_hash_covers_architecture(self):
        small = scenario("tgff", num_tasks=12, n_clbs=500)
        large = scenario("tgff", num_tasks=12, n_clbs=5000)
        assert scenario_hash(small) != scenario_hash(large)
