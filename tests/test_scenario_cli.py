"""Scenario files, presets, and the command-line surface."""

import concurrent.futures
import copy
import csv
import dataclasses
import functools
import math
import multiprocessing
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

import citysim
from citysim.cli import (
    _multiplier_tag,
    _paired_signs,
    _signed_direction,
    analyze_population,
    build_parser,
    compare_matching,
    detect_plateau,
    equilibrium_audit,
    main,
    sweep_lambda,
)
from citysim.core import ConfigurationError, InteractionMatrix
from citysim.demographics import DemographicsParams
from citysim.engine import MatchingConfig, SimConfig
from citysim.matching import MatchMode
from citysim.presets import PRESETS, get_preset
from citysim.scenario import (
    Scenario,
    dump_scenario,
    load_scenario,
    scenario_from_mapping,
)
from citysim.society import LearningRateSchedule
from conftest import load_json_strict
from strategies import small_configs

MINIMAL = {
    "seed": 11,
    "population": [{"count": 12, "mean": [0.6] * 8}],
}


def write_config(tmp_path: Path, data: dict, name: str = "scn.yaml") -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def small_mapping(**overrides) -> dict:
    data = {
        "seed": 5,
        "population": [{"count": 16, "mean": [0.7] * 8, "std": 0.05}],
        "max_time": 12.0,
    }
    data.update(overrides)
    return data


def noise_mapping(mode: str, noise_sigma: float) -> dict:
    """40 founders matched by mode with noise scale noise_sigma to t=5."""
    population = [{"count": 40, "mean": [0.7] * 8}]
    matching = {"mode": mode, "noise_sigma": noise_sigma}
    return small_mapping(population=population, max_time=5.0, matching=matching)


class TestScenarioParsing:
    def test_minimal_file_gets_defaults(self, tmp_path):
        sc = load_scenario(write_config(tmp_path, MINIMAL))
        cfg = sc.config
        assert cfg.seed == 11
        assert cfg.groups[0].count == 12
        assert list(cfg.theta0.values) == [0.5] * 13
        assert cfg.groups[0].std == (0.1,) * 8
        assert cfg.mating_period == 1.0 and cfg.max_time == 10_000.0
        assert cfg.log_every == 1 and cfg.success_pop_scope == "global"
        assert cfg.matching.mode is MatchMode.OPTIMAL
        assert cfg.schedule.kind == "fixed" and cfg.schedule.base == 1e-4
        assert cfg.grid is None
        assert sc.name == "scn"
        assert sc.out_dir is None and sc.preset is None

    def test_unknown_root_key_named(self, tmp_path):
        path = write_config(tmp_path, dict(MINIMAL, extra=1))
        with pytest.raises(ConfigurationError, match="extra"):
            load_scenario(path)

    def test_unknown_nested_key_names_section(self):
        with pytest.raises(ConfigurationError, match="matching"):
            scenario_from_mapping(small_mapping(matching={"modee": "optimal"}))

    def test_wrong_length_vector_names_field(self):
        with pytest.raises(ConfigurationError, match=r"population\[0\].mean"):
            scenario_from_mapping(small_mapping(population=[{"count": 4, "mean": [0.5] * 7}]))

    def test_theta_by_name_fills_neutral(self):
        sc = scenario_from_mapping(small_mapping(theta0={"literacy": 0.9, "crime_rate": 0.2}))
        theta = list(sc.config.theta0.values)
        assert theta[0] == 0.9 and theta[2] == 0.2
        assert theta[1] == 0.5 and theta[12] == 0.5

    def test_unknown_trait_name_rejected(self):
        with pytest.raises(ConfigurationError, match="theta0"):
            scenario_from_mapping(small_mapping(theta0={"literacyy": 0.9}))

    def test_out_of_range_value_names_trait(self):
        with pytest.raises(ConfigurationError, match="theta0.literacy"):
            scenario_from_mapping(small_mapping(theta0={"literacy": 1.5}))

    def test_bad_mode_lists_choices(self):
        with pytest.raises(ConfigurationError, match="optimal"):
            scenario_from_mapping(small_mapping(matching={"mode": "psychic"}))

    def test_seed_and_population_required(self):
        with pytest.raises(ConfigurationError, match="seed"):
            scenario_from_mapping({"population": MINIMAL["population"]})
        with pytest.raises(ConfigurationError, match="population"):
            scenario_from_mapping({"seed": 3})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_scenario(tmp_path / "nope.yaml")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            load_scenario(path)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("seed: [unclosed\n")
        with pytest.raises(ConfigurationError, match="parse error"):
            load_scenario(path)

    def test_grid_must_be_pair(self):
        with pytest.raises(ConfigurationError, match="grid"):
            scenario_from_mapping(small_mapping(grid=[4]))

    @pytest.mark.parametrize(
        "entry,complaint",
        [("x", "a number"), (2.9, "an integer"), (True, "a number")],
    )
    def test_malformed_grid_entry_rejected(self, entry, complaint):
        with pytest.raises(ConfigurationError, match=rf"grid\[0\]: expected {complaint}"):
            scenario_from_mapping(small_mapping(grid=[entry, 3]))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("mating_period", "slow"),
            ("log_every", 2.5),
            ("log_every", True),
            ("success_pop_scope", 5),
        ],
    )
    def test_malformed_root_value_names_field(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            scenario_from_mapping(small_mapping(**{key: value}))

    def test_integer_too_large_for_a_float_rejected(self):
        with pytest.raises(ConfigurationError, match="^max_time: .* that fits in a float"):
            scenario_from_mapping(small_mapping(max_time=10**400))

    def test_non_numeric_trait_value_names_trait(self):
        with pytest.raises(ConfigurationError, match="theta0.literacy: expected a number"):
            scenario_from_mapping(small_mapping(theta0={"literacy": "high"}))

    def test_non_numeric_mean_entry_names_field(self):
        mean = [0.5] * 7 + ["high"]
        with pytest.raises(ConfigurationError, match=r"population\[0\].mean.religious"):
            scenario_from_mapping(small_mapping(population=[{"count": 4, "mean": mean}]))

    def test_non_numeric_std_entry_names_field(self):
        group = {"count": 4, "mean": [0.5] * 8, "std": [0.1] * 7 + ["wide"]}
        message = r"population\[0\]: std\[7\]: expected a number, got 'wide'"
        with pytest.raises(ConfigurationError, match=message):
            scenario_from_mapping(small_mapping(population=[group]))

    @pytest.mark.parametrize(
        "section,cls",
        [
            ("demographics", DemographicsParams),
            ("matching", MatchingConfig),
            ("schedule", LearningRateSchedule),
        ],
    )
    def test_section_keys_are_the_config_fields(self, section, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        dumped = yaml.safe_load(dump_scenario(scenario_from_mapping(small_mapping())))
        assert list(dumped[section]) == names
        with pytest.raises(ConfigurationError, match=f"{section}: unknown key"):
            scenario_from_mapping(small_mapping(**{section: {"bogus": 1}}))

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"matching": 5}, "matching: expected a mapping"),
            ({"population": [5]}, r"population\[0\]: expected a mapping"),
            ({"theta0": 0.5}, "theta0: expected a list of 13 values or a name mapping"),
            ({"population": []}, "population: expected a nonempty list"),
            ({"population": {"count": 4}}, "population: expected a nonempty list"),
            ({"population": [{"mean": [0.5] * 8}]}, r"population\[0\]: count and mean"),
            ({"population": [{"count": 4}]}, r"population\[0\]: count and mean"),
            (
                {"population": [{"count": 4, "mean": [0.5] * 8, "std": "wide"}]},
                r"population\[0\]: std: expected a number, got 'wide'",
            ),
            (
                {"population": [{"count": -1, "mean": [0.5] * 8}]},
                r"population\[0\]: count must be >= 0",
            ),
            ({"interaction": 5}, "interaction: expected 'default' or a CSV path"),
            ({"interaction": "missing.csv"}, "interaction: file not found"),
            ({"name": 5}, "name: expected a nonempty string"),
            ({"name": ""}, "name: expected a nonempty string"),
            ({"out": 5}, "out: expected a path string"),
            ({"preset": 5}, "preset: expected a string"),
        ],
    )
    def test_malformed_field_is_named(self, tmp_path, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            scenario_from_mapping(small_mapping(**overrides), base_dir=tmp_path)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"name": 5}, "^name: expected a nonempty string$"),
            ({"name": ""}, "^name: expected a nonempty string$"),
            ({"out_dir": 3}, "^out: expected a path string$"),
            ({"preset": 5}, "^preset: expected a string$"),
            ({"interaction_source": None}, "^interaction_source: expected a string$"),
        ],
    )
    def test_scenario_built_in_python_meets_the_file_rule(self, fields, message):
        # Each built; a file holding the same value is rejected.
        config = scenario_from_mapping(small_mapping()).config
        with pytest.raises(ConfigurationError, match=message):
            Scenario(**{"name": "s", "config": config, **fields})

    def test_interaction_csv_resolved_relative(self, tmp_path):
        matrix = InteractionMatrix.default()
        matrix.to_csv(tmp_path / "matrix.csv")
        data = small_mapping(interaction="matrix.csv")
        sc = scenario_from_mapping(data, base_dir=tmp_path)
        assert Path(sc.interaction_source).is_absolute()
        assert np.array_equal(sc.config.interaction.entries, matrix.entries)


class TestScenarioRoundTrip:
    def test_dump_beside_a_relative_path_loads_the_same_matrix(self, tmp_path, monkeypatch):
        # The YAML is loaded by a path relative to the working directory, and
        # the dump goes into the YAML's own directory: the matrix it names
        # must still be the one beside the source, not configs/configs/m.csv.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "configs").mkdir()
        matrix = InteractionMatrix(InteractionMatrix.default().entries * 0.5)
        matrix.to_csv(tmp_path / "configs" / "m.csv")
        sc = load_scenario(write_config(Path("configs"), small_mapping(interaction="m.csv")))
        dump = Path("configs") / "dump.yaml"
        dump.write_text(dump_scenario(sc))
        again = load_scenario(dump)
        assert again.interaction_source == sc.interaction_source
        assert np.array_equal(again.config.interaction.entries, matrix.entries)
        same_matrix = dataclasses.replace(again.config, interaction=sc.config.interaction)
        assert dataclasses.replace(again, name=sc.name, config=same_matrix) == sc

    def test_no_scenario_dumps_what_load_rejects(self):
        # Scenario(5, config) built, and load_scenario rejected its dump
        # with "name: expected a nonempty string".
        config = scenario_from_mapping(small_mapping()).config
        with pytest.raises(ConfigurationError, match="^name: expected a nonempty string$"):
            dump_scenario(Scenario(5, config))

    def test_dump_then_load_is_stable(self, tmp_path):
        original = write_config(
            tmp_path,
            small_mapping(
                name="custom",
                matching={"mode": "noisy", "noise_sigma": 0.4},
                schedule={"kind": "dynamic", "base": 2e-4, "multiplier": 3.0},
                demographics={"mutation_prob": 0.2},
                out="somewhere",
            ),
        )
        text1 = dump_scenario(load_scenario(original))
        renormal = tmp_path / "normal.yaml"
        renormal.write_text(text1)
        assert dump_scenario(load_scenario(renormal)) == text1

    def test_loaded_fields_survive(self, tmp_path):
        path = write_config(
            tmp_path,
            small_mapping(
                seed=42,
                mating_period=2.0,
                log_every=4,
                matching={"mode": "partitioned", "partition_size": 6},
            ),
        )
        sc = load_scenario(path)
        again = tmp_path / "again.yaml"
        again.write_text(dump_scenario(sc))
        sc2 = load_scenario(again)
        assert sc2.config.seed == 42
        assert sc2.config.mating_period == 2.0
        assert sc2.config.log_every == 4
        assert sc2.config.matching.mode is MatchMode.PARTITIONED
        assert sc2.config.matching.partition_size == 6
        assert sc2.config.groups == sc.config.groups

    def test_presets_all_round_trip(self, tmp_path):
        for name in PRESETS:
            sc = get_preset(name)
            path = tmp_path / f"{name}.yaml"
            path.write_text(dump_scenario(sc))
            again = load_scenario(path)
            assert again.config.seed == sc.config.seed
            assert again.config.max_time == sc.config.max_time
            assert again.config.groups == sc.config.groups
            assert again.config.matching == sc.config.matching
            assert again.config.demographics == sc.config.demographics
            assert list(again.config.theta0.values) == list(sc.config.theta0.values)
            assert again.preset == name


# Values outside every numeric field's range: each field is at least 0.
OUT_OF_RANGE = st.sampled_from([-1, -0.5, math.inf, -math.inf, math.nan])


class TestScenarioRoundTripProperty:
    @settings(max_examples=200, derandomize=True)
    @given(small_configs())
    def test_dump_loads_back_to_the_same_config(self, cfg):
        text = dump_scenario(Scenario("drawn", cfg))
        back = scenario_from_mapping(yaml.safe_load(text))
        assert dump_scenario(back) == text
        for f in dataclasses.fields(SimConfig):
            a, b = getattr(back.config, f.name), getattr(cfg, f.name)
            if f.name == "interaction":
                # InteractionMatrix compares by identity (eq=False).
                assert np.array_equal(a.entries, b.entries)
                assert (a.row_names, a.col_names) == (b.row_names, b.col_names)
            else:
                assert a == b, f.name

    @settings(derandomize=True)
    @given(small_configs(), st.data())
    def test_out_of_range_number_gives_one_message(self, cfg, data):
        # Each numeric field is checked once, in the dataclass that owns it,
        # so Python and a scenario file get the same message, but for the
        # field path the parser puts before it.
        def python(owner, name):
            return lambda v: dataclasses.replace(owner, **{name: v})

        cases = [(("seed",), "", python(cfg, "seed"))]
        cases += [((k,), "", python(cfg, k)) for k in ("mating_period", "max_time", "log_every")]
        if cfg.grid is not None:
            width = python(cfg, "grid")
            cases.append((("grid", 0), "", lambda v: width((v, cfg.grid[1]))))
        for name in ("count", "std"):
            cases.append((("population", 0, name), "population[0]: ", python(cfg.groups[0], name)))
        for section in ("demographics", "matching", "schedule"):
            owner = getattr(cfg, section)
            for f in dataclasses.fields(owner):
                if type(getattr(owner, f.name)) in (int, float):
                    cases.append(((section, f.name), f"{section}: ", python(owner, f.name)))
        doc = yaml.safe_load(dump_scenario(Scenario("drawn", cfg)))
        for path, prefix, build in cases:
            bad = data.draw(OUT_OF_RANGE, label=".".join(map(str, path)))
            with pytest.raises(ConfigurationError) as from_python:
                build(bad)
            mapping = copy.deepcopy(doc)
            *parents, leaf = path
            node = mapping
            for key in parents:
                node = node[key]
            # The mapping is the loaded dump, and the value is written as
            # YAML and read back.
            node[leaf] = yaml.safe_load(yaml.safe_dump(bad))
            with pytest.raises(ConfigurationError) as from_file:
                scenario_from_mapping(mapping)
            assert str(from_file.value) == prefix + str(from_python.value), path

    def test_seed_bound_gives_one_message(self, tmp_path):
        # SimConfig alone bounds the seed to [0, 2^64), so Python and a
        # scenario file accept and reject the same seeds, with one message.
        config = scenario_from_mapping(MINIMAL).config
        top = 2**64 - 1
        assert dataclasses.replace(config, seed=top).seed == top
        assert load_scenario(write_config(tmp_path, {**MINIMAL, "seed": top})).config.seed == top
        with pytest.raises(ConfigurationError) as from_python:
            dataclasses.replace(config, seed=top + 1)
        with pytest.raises(ConfigurationError) as from_file:
            load_scenario(write_config(tmp_path, {**MINIMAL, "seed": top + 1}))
        assert str(from_python.value) == f"seed must lie in [0, 2^64), got {top + 1}"
        assert str(from_file.value) == str(from_python.value)


class TestPresets:
    def test_registry_names(self):
        for expected in (
            "baseline-mixed",
            "high-intellect-pop-in-criminal-city",
            "criminal-pop-in-criminal-city",
            "high-intellect-pop-in-intellectual-city",
            "low-intellect-pop-in-intellectual-city",
            "agrarian-80-20",
            "intellect-75-25",
            "criminal-75-25",
            "locality-grid-10x10",
        ):
            assert expected in PRESETS

    def test_unknown_preset_lists_choices(self):
        with pytest.raises(ConfigurationError, match="baseline-mixed"):
            get_preset("no-such-place")

    def test_overrides(self):
        sc = get_preset("baseline-mixed", seed=99)
        assert sc.config.seed == 99
        assert sc.out_dir is None
        assert get_preset("baseline-mixed").config.seed == 0


class TestDetectPlateau:
    def test_constant_series_plateaus_at_zero(self):
        t = np.arange(0.0, 50.0)
        when, level = detect_plateau(t, np.full(50, 3.25), 50.0)
        assert when == 0.0
        assert level == pytest.approx(3.25)

    def test_pure_ramp_never_settles(self):
        t = np.arange(0.0, 100.0)
        when, level = detect_plateau(t, 0.01 * t, 100.0)
        assert math.isnan(when) and math.isnan(level)

    def test_ramp_then_flat_lands_after_corner(self):
        t = np.arange(0.0, 1000.0)
        y = np.where(t < 300, t, 300.0)
        when, level = detect_plateau(t, y, 1000.0)
        # trailing window is 50 wide; it must clear the ramp first
        assert 300.0 <= when <= 360.0
        assert level == pytest.approx(300.0)

    def test_level_is_mean_from_plateau_on(self):
        t = np.arange(0.0, 200.0)
        y = np.concatenate([np.linspace(0, 7, 100), np.full(100, 7.0)])
        when, level = detect_plateau(t, y, 200.0)
        assert level == pytest.approx(np.mean(y[int(when):]))

    def test_mismatched_series_rejected(self):
        with pytest.raises(ConfigurationError):
            detect_plateau([1.0, 2.0], [1.0], 10.0)


def test_multiplier_tag_formats():
    assert _multiplier_tag(1.0) == "1"
    assert _multiplier_tag(30) == "30"
    assert _multiplier_tag(2.5) == "2.5"
    # Decimal up to 16 digits; a larger integral value as its float repr.
    assert _multiplier_tag(9.9e15) == "9900000000000000"
    assert _multiplier_tag(1e16) == "1e+16"
    assert _multiplier_tag(1e300) == "1e+300"


def test_signed_direction():
    assert _signed_direction(0.5) == "noisy_higher"
    assert _signed_direction(-0.5) == "optimal_higher"
    assert _signed_direction(0.0) == "equal"
    assert _signed_direction(math.nan) == "undefined"


@pytest.mark.parametrize("higher,lower", [(10, 0), (9, 1), (5, 5), (0, 0)])
def test_sign_test_p_matches_binomtest(higher, lower):
    # A tie and a nan pair ride along; each is counted apart and leaves p alone.
    diffs = [1.0] * higher + [-1.0] * lower + [0.0, math.nan]
    per_run = {"optimal": [{"m": 2.0} for _ in diffs], "noisy": [{"m": 2.0 + d} for d in diffs]}
    signs = _paired_signs(per_run, "m")
    p = signs.pop("sign_test_p")
    assert signs == {"noisy_higher": higher, "optimal_higher": lower, "equal": 1, "undefined": 1}
    if higher + lower:
        assert p == pytest.approx(binomtest(higher, higher + lower).pvalue, rel=1e-12)
    else:
        assert p is None


class TestCliSimulate:
    def test_simulate_writes_four_files(self, tmp_path):
        cfg = write_config(tmp_path, small_mapping())
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "log.csv",
            "population_final.csv",
            "population_initial.csv",
            "summary.json",
        ]

    def test_simulate_grid_writes_five_files(self, tmp_path):
        cfg = write_config(
            tmp_path,
            small_mapping(grid=[3, 3], matching={"mode": "locality", "gamma": 1.0}),
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "grid_log.csv").exists()
        assert len(list(out.iterdir())) == 5

    def test_identical_invocations_identical_outputs(self, tmp_path):
        cfg = write_config(tmp_path, small_mapping())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("log.csv", "population_initial.csv", "population_final.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        s1 = load_json_strict(out1 / "summary.json")
        s2 = load_json_strict(out2 / "summary.json")
        s1.pop("meta"), s2.pop("meta")
        assert s1 == s2

    def test_seed_override_changes_run(self, tmp_path):
        cfg = write_config(tmp_path, small_mapping())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2), "--seed", "77"])
        assert (out1 / "log.csv").read_bytes() != (out2 / "log.csv").read_bytes()

    def test_config_and_preset_mutually_exclusive(self, tmp_path):
        cfg = write_config(tmp_path, small_mapping())
        assert main(["simulate", "--config", str(cfg), "--preset", "baseline-mixed"]) == 2
        assert main(["simulate"]) == 2

    def test_bad_preset_exits_2(self):
        assert main(["simulate", "--preset", "atlantis"]) == 2

    @pytest.mark.parametrize("argv", [[], ["bogus"]])
    def test_missing_or_unknown_command_exits_2(self, argv, capsys):
        # argparse refuses a missing or unknown subcommand before main() dispatches.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "gone.yaml")]) == 2

    def test_invalid_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_mapping(theta0={"literacy": 2.0}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "literacy" in capsys.readouterr().err

    def test_malformed_grid_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_mapping(grid=["x", 3]))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: grid[0]")

    def test_trait_repeating_a_csv_column_exits_2(self, tmp_path, capsys):
        m = InteractionMatrix.default()
        InteractionMatrix(m.entries, (*m.row_names[:7], "happiness"), m.col_names).to_csv(
            tmp_path / "matrix.csv"
        )
        cfg = write_config(tmp_path, small_mapping(interaction="matrix.csv"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "'happiness'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_overflowing_round_count_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_mapping(max_time=1.0e300, mating_period=1.0e-300))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert "max_time / mating_period" in capsys.readouterr().err

    def test_overflowing_grid_exits_2(self, tmp_path, capsys):
        # Block codes gx * h + gy overflowed int64, and init_population died
        # with OverflowError.
        cfg = write_config(tmp_path, small_mapping(grid=[1.0e300, 2]))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: grid must be two dimensions")
        assert not (tmp_path / "run").exists()

    def test_founders_beyond_int64_ids_exit_2(self, tmp_path, capsys):
        # init_population died with "Maximum allowed dimension exceeded".
        population = [{"count": 1.0e20, "mean": [0.7] * 8}]
        cfg = write_config(tmp_path, small_mapping(population=population))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: population: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mode", ["noisy", "partitioned"])
    def test_overflowing_noise_scale_exits_2(self, tmp_path, capsys, mode):
        # The k x k noise draws overflowed to inf, and linear_sum_assignment
        # died with "matrix contains invalid numeric entries".
        cfg = write_config(tmp_path, noise_mapping(mode, 1.0e308))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: matching: noise_sigma 1e+308 overflows")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mode", ["noisy", "partitioned"])
    def test_huge_noise_scale_below_the_bound_runs(self, tmp_path, mode):
        cfg = write_config(tmp_path, noise_mapping(mode, 1.0e307))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert load_json_strict(tmp_path / "run" / "summary.json")["final_time"] == 5.0

    @pytest.mark.parametrize(
        "extra,message",
        [
            ("5: 1", "scenario: unknown key(s) 5"),
            ("theta0: {1: 0.5, literacy: 0.2}", "theta0: unknown trait name(s) 1"),
            ("matching: {mode: noisy, 3: 1, foo: 2}", "matching: unknown key(s) 3, foo"),
        ],
    )
    def test_non_string_key_exits_2(self, tmp_path, capsys, extra, message):
        # YAML keys need not be strings; naming one once raised TypeError.
        cfg = tmp_path / "scn.yaml"
        cfg.write_text(yaml.safe_dump(small_mapping()) + extra + "\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_jobs_only_where_members_run(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "baseline-mixed", "--jobs", "2"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        for command in ("sweep-lambda", "compare-matching"):
            args = build_parser().parse_args([command, "--preset", "lambda-sweep", "--jobs", "2"])
            assert args.jobs == 2

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    @pytest.mark.parametrize("command", ["sweep-lambda", "compare-matching"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, command, jobs):
        cfg = write_config(tmp_path, small_mapping())
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
        assert capsys.readouterr().err.startswith("error: jobs")
        assert not out.exists()


def test_readme_commands_parse():
    # Every `citysim` line in README's code blocks parses as written, so the
    # documented commands cannot drift from the CLI. None of them runs.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("citysim ")]
    assert lines
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


class TestCliSweep:
    def test_single_multiplier_matches_simulate(self, tmp_path):
        cfg = write_config(tmp_path, small_mapping())
        sim_out = tmp_path / "sim"
        sweep_out = tmp_path / "sweep"
        assert main(["simulate", "--config", str(cfg), "--out", str(sim_out)]) == 0
        assert (
            main(
                [
                    "sweep-lambda",
                    "--config",
                    str(cfg),
                    "--out",
                    str(sweep_out),
                    "--multipliers",
                    "1",
                ]
            )
            == 0
        )
        assert (sweep_out / "multiplier-1" / "log.csv").read_bytes() == (
            sim_out / "log.csv"
        ).read_bytes()
        header = (sweep_out / "sweep_summary.csv").read_text().splitlines()[0]
        assert header == "multiplier,time_to_plateau,plateau_happiness,status"

    def test_four_multipliers_four_runs(self, tmp_path):
        sc = scenario_from_mapping(small_mapping())
        rows = sweep_lambda(sc, [1.0, 3.0, 10.0, 30.0], tmp_path / "s", jobs=1)
        assert [r["multiplier"] for r in rows] == [1.0, 3.0, 10.0, 30.0]
        dirs = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert dirs == [
            "multiplier-1",
            "multiplier-10",
            "multiplier-3",
            "multiplier-30",
            "sweep_summary.csv",
        ]

    def test_jobs_do_not_change_results(self, tmp_path):
        sc = scenario_from_mapping(small_mapping())
        sweep_lambda(sc, [1.0, 2.0], tmp_path / "serial", jobs=1)
        sweep_lambda(sc, [1.0, 2.0], tmp_path / "parallel", jobs=2)
        assert (tmp_path / "serial" / "sweep_summary.csv").read_bytes() == (
            tmp_path / "parallel" / "sweep_summary.csv"
        ).read_bytes()

    def test_bad_multipliers_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, small_mapping())
        assert main(["sweep-lambda", "--config", str(cfg), "--multipliers", "abc"]) == 2
        assert main(["sweep-lambda", "--config", str(cfg), "--multipliers", "0,1"]) == 2

    def test_repeated_multiplier_rejected_before_any_run(self, tmp_path, capsys):
        # 1.0 and 1 once ran twice into multiplier-1/, the second run
        # overwriting the first, and gave the summary two rows for 1.
        sc = scenario_from_mapping(small_mapping())
        with pytest.raises(ConfigurationError, match="multipliers: 1.0 repeats"):
            sweep_lambda(sc, [1.0, 1, 3.0], tmp_path / "s", jobs=1)
        assert not (tmp_path / "s").exists()
        cfg = write_config(tmp_path, small_mapping())
        out = tmp_path / "cli"
        args = ["sweep-lambda", "--config", str(cfg), "--out", str(out)]
        assert main([*args, "--multipliers", "1,1.0,3"]) == 2
        assert capsys.readouterr().err.startswith("error: multipliers")
        assert not out.exists()

    def test_huge_integral_multiplier_names_a_short_directory(self, tmp_path):
        # 1e300 was named by all 301 of its digits, too long for a file
        # name, after every member had run.
        sc = get_preset("lambda-sweep")
        sc = dataclasses.replace(sc, config=dataclasses.replace(sc.config, max_time=5.0))
        rows = sweep_lambda(sc, [1.0, 1e300], tmp_path / "s", jobs=1)
        assert [r["multiplier"] for r in rows] == [1.0, 1e300]
        dirs = sorted(p.name for p in (tmp_path / "s").iterdir())
        assert dirs == ["multiplier-1", "multiplier-1e+300", "sweep_summary.csv"]

    def test_empty_multipliers_rejected(self):
        sc = scenario_from_mapping(small_mapping())
        with pytest.raises(ConfigurationError, match="multipliers"):
            sweep_lambda(sc, [], "unused", jobs=1)


class TestCliCompare:
    def test_report_structure(self, tmp_path):
        sc = scenario_from_mapping(small_mapping())
        report = compare_matching(sc, 2, tmp_path, jobs=1)
        assert report["seeds"] == [5, 6]
        for mode in ("optimal", "noisy"):
            assert len(report["per_run"][mode]) == 2
            assert set(report["paired_means"][mode]) == {
                "min_population",
                "convergent_happiness",
            }
        for metric in ("convergent_happiness", "min_population"):
            assert report["direction"][metric] in (
                "noisy_higher",
                "optimal_higher",
                "equal",
            )
        assert list(report)[-2:] == ["direction", "paired_signs"]
        assert list(report["paired_signs"]) == list(report["direction"])
        for signs in report["paired_signs"].values():
            assert list(signs) == [
                "noisy_higher",
                "optimal_higher",
                "equal",
                "undefined",
                "sign_test_p",
            ]
            assert sum(list(signs.values())[:4]) == 2
        lines = (tmp_path / "compare_matching.csv").read_text().splitlines()
        assert lines[0] == "mode,seed,min_population,convergent_happiness,status"
        assert len(lines) == 5

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deterministic_report(self, tmp_path, jobs):
        # A second serial run, then a pooled one, writes the serial run's bytes.
        sc = scenario_from_mapping(small_mapping())
        report = compare_matching(sc, 2, tmp_path / "a", jobs=1)
        compare_matching(sc, 2, tmp_path / "b", jobs=jobs)
        for name in ("compare_matching.csv", "compare_matching.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert load_json_strict(tmp_path / "a" / "compare_matching.json") == report

    @pytest.mark.parametrize("start_method", multiprocessing.get_all_start_methods())
    def test_pooled_report_under_each_start_method(self, tmp_path, monkeypatch, start_method):
        # A pooled run whose workers start by start_method writes the
        # serial run's bytes.
        sc = scenario_from_mapping(small_mapping())
        compare_matching(sc, 2, tmp_path / "serial", jobs=1)
        pool = functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context(start_method),
        )
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        compare_matching(sc, 2, tmp_path / "pooled", jobs=2)
        for name in ("compare_matching.csv", "compare_matching.json"):
            serial = (tmp_path / "serial" / name).read_bytes()
            assert (tmp_path / "pooled" / name).read_bytes() == serial, name

    def test_extinct_runs_write_strict_json(self, tmp_path):
        # Everyone is dead at birth, so every convergent happiness is nan:
        # the file holds null for it, and its direction is undefined.
        sc = get_preset("matching-comparison")
        demographics = dataclasses.replace(sc.config.demographics, lifespan_b=1e6)
        config = dataclasses.replace(sc.config, max_time=20.0, demographics=demographics)
        compare_matching(dataclasses.replace(sc, config=config), 2, tmp_path, jobs=1)
        report = load_json_strict(tmp_path / "compare_matching.json")
        for mode in ("optimal", "noisy"):
            assert [r["status"] for r in report["per_run"][mode]] == ["extinct"] * 2
            assert [r["convergent_happiness"] for r in report["per_run"][mode]] == [None] * 2
            assert report["paired_means"][mode]["convergent_happiness"] is None
        assert report["differences_noisy_minus_optimal"]["convergent_happiness"] is None
        assert report["direction"] == {
            "convergent_happiness": "undefined",
            "min_population": "equal",
        }
        # nan pairs are counted apart, and with no untied pair there is no p.
        none_untied = {"noisy_higher": 0, "optimal_higher": 0, "sign_test_p": None}
        assert report["paired_signs"] == {
            "convergent_happiness": {**none_untied, "equal": 0, "undefined": 2},
            "min_population": {**none_untied, "equal": 2, "undefined": 0},
        }

    def test_single_seed_rejected(self, tmp_path):
        sc = scenario_from_mapping(small_mapping())
        with pytest.raises(ConfigurationError, match="seeds"):
            compare_matching(sc, 1, tmp_path, jobs=1)
        cfg = write_config(tmp_path, small_mapping())
        assert main(["compare-matching", "--config", str(cfg), "--seeds", "1"]) == 2


class TestCliAnalyze:
    def test_analyze_population_outputs(self, tmp_path):
        cfg = write_config(tmp_path, small_mapping())
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        ana = tmp_path / "ana"
        rc = main(
            [
                "analyze",
                "--input",
                str(out / "population_final.csv"),
                "--out",
                str(ana),
                "--clusters",
                "2",
            ]
        )
        assert rc == 0
        payload = load_json_strict(ana / "analysis_clusters.json")
        total = sum(c["size"] for c in payload["clusters"])
        rows = (ana / "analysis_embedding.csv").read_text().splitlines()
        assert rows[0] == "id,e0,e1,cluster"
        assert len(rows) - 1 == total
        assert set(payload["clusters"][0]["mean"]) == {
            "intellect",
            "strength",
            "obedience",
            "flexibility",
            "health",
            "sincerity",
            "family_oriented",
            "religious",
        }

    def test_snapshot_with_a_byte_order_mark_analyzes_as_without(self, tmp_path):
        # Some spreadsheet programs save UTF-8 CSV with a BOM; such a copy
        # was "not a population snapshot CSV", exit 2.
        out = tmp_path / "run"
        cfg = write_config(tmp_path, small_mapping())
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        plain = out / "population_final.csv"
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for snapshot, ana in ((plain, "plain"), (bom, "bom")):
            assert main(["analyze", "--input", str(snapshot), "--out", str(tmp_path / ana)]) == 0
        embedding, clusters = "analysis_embedding.csv", "analysis_clusters.json"
        assert (tmp_path / "bom" / embedding).read_bytes() == (
            tmp_path / "plain" / embedding
        ).read_bytes()
        report = load_json_strict(tmp_path / "plain" / clusters)
        assert load_json_strict(tmp_path / "bom" / clusters) == {**report, "input": str(bom)}

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        # Rejected before the input is read: a missing file would exit 1.
        missing = str(tmp_path / "none.csv")
        assert main(["analyze", "--input", missing, "--out", str(tmp_path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed")

    def test_missing_input_exits_1(self, tmp_path):
        assert main(["analyze", "--input", str(tmp_path / "none.csv")]) == 1

    def test_non_snapshot_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["analyze", "--input", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "bad_row",
        [
            "0,male,0.0,9.0,1.0,3.0,,,0.5,abc",
            "0,male,0.0,9.0,1.0,3.0,,,0.5",
            "0,male,0.0,9.0,1.0,3.0,,,0.3,0.4,0.9,0.9",
        ],
    )
    def test_malformed_row_exits_2(self, tmp_path, capsys, bad_row):
        # A non-numeric trait cell, a row one cell short, a row two cells wide.
        header = "id,sex,birth_time,death_time,next_available_time,happiness,gx,gy,a,b"
        good = "1,female,0.0,9.0,1.0,3.0,,,0.5,0.5"
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{good}\n{bad_row}\n")
        assert main(["analyze", "--input", str(bad), "--out", str(tmp_path / "ana")]) == 2
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_repeated_column_exits_2(self, tmp_path, capsys):
        # Two trait columns of one name would share one "mean" key.
        bad = tmp_path / "pop.csv"
        bad.write_text("id,a,b,a\n0,0.5,0.2,0.9\n1,0.3,0.4,0.1\n")
        assert main(["analyze", "--input", str(bad), "--out", str(tmp_path / "ana")]) == 2
        assert capsys.readouterr().err == f"error: {bad}:1: repeated column(s) a\n"

    def test_blank_rows_are_skipped(self, tmp_path):
        # As InteractionMatrix.from_csv skips them, a trailing blank line included.
        pop = tmp_path / "pop.csv"
        pop.write_text("id,a,b\n0,0.5,0.2\n\n1,0.3,0.4\n2,0.9,0.1\n\n")
        argv = ["analyze", "--input", str(pop), "--out", str(tmp_path / "ana"), "--clusters", "1"]
        assert main(argv) == 0
        rows = (tmp_path / "ana" / "analysis_embedding.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows] == ["id", "0", "1", "2"]

    def test_out_of_range_trait_exits_2(self, tmp_path, capsys):
        # Traits are checked as the file is read, as a TraitVector checks
        # them, before any clustering: the message names file, line and column.
        header = "id,sex,birth_time,death_time,next_available_time,happiness,gx,gy,a,b"
        rows = [f"{i},male,0.0,9.0,1.0,3.0,,,0.{i},{1.5 if i == 2 else 0.5}" for i in range(4)]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, *rows]) + "\n")
        argv = ["analyze", "--input", str(bad), "--out", str(tmp_path / "ana"), "--clusters", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {bad}:4: trait b must be <= 1, got 1.5\n"

    @pytest.mark.parametrize(
        "cell,message", [("-0.25", "must be >= 0, got -0.25"), ("nan", "must be finite, got nan")]
    )
    def test_trait_below_zero_or_nan_exits_2(self, tmp_path, capsys, cell, message):
        bad = tmp_path / "pop.csv"
        bad.write_text(f"id,intellect,strength\n0,0.5,0.2\n1,0.3,{cell}\n")
        assert main(["analyze", "--input", str(bad), "--out", str(tmp_path / "ana")]) == 2
        assert capsys.readouterr().err == f"error: {bad}:3: trait strength {message}\n"

    def test_analyze_grid_snapshot(self, tmp_path):
        cfg = write_config(
            tmp_path,
            small_mapping(grid=[2, 2], matching={"mode": "locality", "gamma": 1.0}),
        )
        out = tmp_path / "run"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        payload = analyze_population(
            out / "population_final.csv", tmp_path / "ana", clusters=2, embed_dim=2, seed=0
        )
        assert "gx" not in payload["clusters"][0]["mean"]


SNAPSHOT_HEADER = "id,sex,birth_time,death_time,next_available_time,happiness,gx,gy,a\n"


@pytest.mark.parametrize(
    "argv,text,message",
    [
        (["analyze", "--input"], "", "{file}: empty population file"),
        (["analyze", "--input"], SNAPSHOT_HEADER, "{file}: no population rows"),
        (
            ["sweep-lambda", "--multipliers", ",", "--config"],
            yaml.safe_dump(small_mapping()),
            "multipliers: need at least one value",
        ),
    ],
)
def test_cli_input_check_exits_2(tmp_path, capsys, argv, text, message):
    file = tmp_path / "input"
    file.write_text(text)
    out = tmp_path / "out"
    assert main([*argv, str(file), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(file=file)}\n"
    assert not out.exists()


def _non_utf8_scenario(tmp_path: Path) -> tuple[Path, list[str]]:
    path = tmp_path / "scn.yaml"
    path.write_bytes(yaml.safe_dump(small_mapping()).encode() + b"# \xff\n")
    return path, ["simulate", "--config", str(path)]


def _non_utf8_matrix(tmp_path: Path) -> tuple[Path, list[str]]:
    path = tmp_path / "matrix.csv"
    InteractionMatrix.default().to_csv(path)
    path.write_bytes(path.read_bytes().replace(b"intellect", b"intell\xfft"))
    cfg = write_config(tmp_path, small_mapping(interaction="matrix.csv"))
    return path, ["simulate", "--config", str(cfg)]


def _non_utf8_snapshot(tmp_path: Path) -> tuple[Path, list[str]]:
    path = tmp_path / "snapshot.csv"
    path.write_bytes(SNAPSHOT_HEADER.encode() + b"1,female,0.0,9.0,1.0,3.0,,,0.5\xff\n")
    return path, ["analyze", "--input", str(path)]


@pytest.mark.parametrize("build", [_non_utf8_scenario, _non_utf8_matrix, _non_utf8_snapshot])
def test_non_utf8_input_exits_2_naming_the_file(tmp_path, capsys, build):
    # Each died with a UnicodeDecodeError traceback and exit 1.
    path, argv = build(tmp_path)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")
    assert not out.exists()


def test_runs_under_encoding_warnings_as_errors(tmp_path):
    # Every file is opened as UTF-8, so no open() falls back to the
    # locale's encoding, which EncodingWarning reports.
    InteractionMatrix.default().to_csv(tmp_path / "matrix.csv")
    cfg = write_config(tmp_path, small_mapping(interaction="matrix.csv"))
    env = dict(os.environ, PYTHONPATH=str(Path(citysim.__file__).parent.parent))
    strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    snapshot = tmp_path / "run" / "population_final.csv"
    for argv in (
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "run")],
        ["analyze", "--input", str(snapshot), "--out", str(tmp_path / "ana")],
    ):
        proc = subprocess.run(
            [*strict, "-m", "citysim.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ana" / "analysis_clusters.json").exists()


def test_scenario_out_is_the_default_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, small_mapping(out="from-file"))
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "from-file" / "log.csv").exists()
    assert not (tmp_path / "runs").exists()


# The words a CSV cell may hold besides a number; gx and gy are empty
# without a grid.
CSV_WORDS = {"", "male", "female", "completed", "extinct", "sterile", "optimal", "noisy"}


def test_every_csv_ends_lines_with_newline_and_reads_back(tmp_path):
    # Every CSV a command writes ends each line with "\n" alone, csv.reader
    # reads back exactly the cells between the commas, and a numeric cell
    # is the decimal of an integer or the repr of a float.
    cfg = write_config(
        tmp_path, small_mapping(grid=[2, 2], matching={"mode": "locality", "gamma": 1.0})
    )
    run_dir = tmp_path / "run"
    for argv in (
        ["simulate", "--out", str(run_dir)],
        ["sweep-lambda", "--out", str(tmp_path / "sweep"), "--multipliers", "1,2.5"],
        ["compare-matching", "--out", str(tmp_path / "compare"), "--seeds", "2"],
    ):
        assert main([*argv, "--config", str(cfg)]) == 0, argv[0]
    snapshot = str(run_dir / "population_final.csv")
    assert main(["analyze", "--input", snapshot, "--out", str(tmp_path / "ana")]) == 0
    paths = sorted(tmp_path.rglob("*.csv"))
    assert {p.name for p in paths} == {
        "log.csv", "grid_log.csv", "population_initial.csv", "population_final.csv",
        "sweep_summary.csv", "compare_matching.csv", "analysis_embedding.csv",
    }
    for path in paths:
        raw = path.read_bytes()
        assert b"\r" not in raw, path
        lines = raw.decode().split("\n")
        assert lines.pop() == "", path
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [line.split(",") for line in lines], path
        assert {len(row) for row in rows} == {len(rows[0])}, path
        for cell in (c for row in rows[1:] for c in row if c not in CSV_WORDS):
            is_int = cell.lstrip("-").isdigit()
            assert cell == (str(int(cell)) if is_int else repr(float(cell))), (path, cell)


class TestCliEquilibria:
    def test_audit_counts_and_reference(self, tmp_path):
        report = equilibrium_audit(tmp_path)
        on_disk = load_json_strict(tmp_path / "equilibria.json")
        assert on_disk == report
        assert report["pure_count"] == len(report["pure_cells"])
        assert report["total_count"] >= report["pure_count"]
        assert report["reference"] == {
            "total": 36,
            "pure": 4,
            "total_agrees": report["total_count"] == 36,
            "pure_agrees": report["pure_count"] == 4,
        }
        assert report["degeneracy"]["examined_supports"] > 0

    def test_cli_exit_zero(self, tmp_path):
        assert main(["equilibria", "--out", str(tmp_path / "eq")]) == 0
