"""Cross-preset bit-identity: every run of the golden matrix, digest for digest.

``tests/data/golden_manifest.json`` pins one SHA-256 per trace channel and
one over the decisions for each (preset, governor, mode) run of
``tests/data/gen_golden_manifest.py``, plus the caps, granted sum, grant
journal, alert events, incidents, scraped time-series state and summary of
a small coordinated fleet. Its ``"obs"``
rows pin each run's metrics export, time-series state and spans with every
observability output on, plus the same fleet's uncoordinated rollups. Its
``"callers"`` rows pin a fleet under node failures and one batch, and its
``"claims"`` row the 16 values ``repro verify`` measures, as ``float.hex``.
Every digest is recomputed here and compared as bytes, so a
``-0.0``/``+0.0`` flip that ``np.array_equal`` forgives still fails.
A failure lists every mismatching (config, channel) pair, with the NumPy
and Python versions the manifest was generated under next to the current
ones: a cross-version mismatch shows as a broad, uniform diff.
"""

import importlib.util
import json
import os
import platform

import numpy as np
import pytest

_GEN_PATH = os.path.join(os.path.dirname(__file__), "data", "gen_golden_manifest.py")
_spec = importlib.util.spec_from_file_location("gen_golden_manifest", _GEN_PATH)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


@pytest.fixture(scope="module")
def manifest():
    with open(gen.MANIFEST_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def fresh():
    """Recomputed digests (obs off and all on), injector incidents inside H
    per faulted run, and the coordinated fleet's alert transitions."""
    runs = {}
    fired = {}
    for key, mode, result in gen.matrix_runs():
        runs[key] = gen.run_digests(result)
        if mode == "faulted":
            fired[key] = gen.injector_incidents_within_horizon(result)
    obs = {}
    observed_runs = {}
    instruments = set()
    for key, _mode, result in gen.matrix_runs(gen.OBS_ALL):
        obs[key] = gen.obs_digests(result)
        observed_runs[key] = gen.run_digests(result)
        instruments.update(result.metrics.names())
    obs_fleet = gen.run_obs_fleet()
    obs[gen.OBS_FLEET_KEY] = gen.obs_fleet_digests(obs_fleet)
    instruments.update(obs_fleet.metrics_rollup().names())
    fleet, journal = gen.run_fleet()
    failure_fleet = gen.run_failure_fleet()
    batch = gen.run_batch_row()
    return {
        "callers": {
            "fleet/failures": gen.failure_fleet_digests(failure_fleet),
            "batch": gen.batch_digests(batch),
        },
        "failure_fleet": failure_fleet,
        "batch": batch,
        "runs": runs,
        "obs": obs,
        "observed_runs": observed_runs,
        "instruments": instruments,
        "fleet": {"coordinated": gen.fleet_digests(fleet, journal)},
        "fired": fired,
        "alert_events": fleet.alerts.events,
        "journal_kinds": [record["kind"] for record in journal._log.records()],
        "incidents": fleet.incidents,
    }


@pytest.fixture(scope="module")
def claims():
    """The claim values, measured as ``repro verify`` measures them (~10 s)."""
    return gen.claim_values()


def _mismatches(pinned, current):
    """Every (config, channel) whose digest differs, is missing or is new."""
    bad = []
    for config in sorted(set(pinned) | set(current)):
        want = pinned.get(config, {})
        got = current.get(config, {})
        for channel in sorted(set(want) | set(got)):
            if want.get(channel) != got.get(channel):
                state = "missing" if channel not in got else "new" if channel not in want else "differs"
                bad.append(f"{config} {channel}: {state}")
    return bad


def _report(manifest, bad):
    versions = (
        f"manifest: numpy {manifest['numpy']}, python {manifest['python']}; "
        f"here: numpy {np.__version__}, python {platform.python_version()}"
    )
    return f"{len(bad)} mismatching (config, channel) pairs ({versions}):\n" + "\n".join(bad)


class TestGoldenManifest:
    def test_matrix_covers_every_config(self, manifest):
        keys = {gen.config_key(p, g, m) for p, g, _o, m in gen.matrix()}
        assert set(manifest["runs"]) == keys
        assert set(manifest["obs"]) == keys | {gen.OBS_FLEET_KEY}
        assert len(keys) == len(gen.PRESETS) * len(gen.GOVERNORS) * len(gen.MODES) == 48

    def test_params_match_generator(self, manifest):
        assert manifest["params"] == {
            "workload": gen.WORKLOAD,
            "seed": gen.SEED,
            "horizon_s": gen.HORIZON_S,
            "dt_s": gen.DT_S,
            "fleet_nodes": gen.FLEET_NODES,
        }

    def test_every_run_digest_matches(self, manifest, fresh):
        bad = _mismatches(manifest["runs"], fresh["runs"])
        assert not bad, _report(manifest, bad)

    def test_every_obs_digest_matches(self, manifest, fresh):
        bad = _mismatches(manifest["obs"], fresh["obs"])
        assert not bad, _report(manifest, bad)

    def test_obs_is_passive_on_every_run(self, manifest, fresh):
        # With every output on, channels and decisions equal the obs-off rows.
        bad = _mismatches(manifest["runs"], fresh["observed_runs"])
        assert not bad, _report(manifest, bad)

    def test_every_instrument_is_in_the_metric_catalogue(self, fresh):
        path = os.path.join(os.path.dirname(__file__), "..", "docs", "OBSERVABILITY.md")
        with open(path) as fh:
            catalogue = fh.read()
        missing = sorted(n for n in fresh["instruments"] if f"`{n}`" not in catalogue)
        assert missing == [], f"instruments missing from docs/OBSERVABILITY.md: {missing}"

    def test_fleet_grant_log_matches(self, manifest, fresh):
        bad = _mismatches(manifest["fleet"], fresh["fleet"])
        assert not bad, _report(manifest, bad)

    def test_faulted_legs_are_not_vacuous(self, fresh):
        assert len(fresh["fired"]) == len(gen.PRESETS) * len(gen.GOVERNORS)
        silent = sorted(key for key, n in fresh["fired"].items() if n < 1)
        assert silent == [], f"no injector incident inside {gen.HORIZON_S} s: {silent}"

    def test_fleet_alert_leg_is_not_vacuous(self, fresh):
        assert fresh["alert_events"], "the coordinated fleet fired no alert transition"
        assert fresh["incidents"], "the coordinated fleet logged no incident"

    def test_fleet_journal_leg_is_not_vacuous(self, fresh):
        # The campaign crashes the coordinator, so the journal digest pins a
        # restart record as well as grants.
        kinds = fresh["journal_kinds"]
        assert "grant" in kinds and "restart" in kinds, sorted(set(kinds))


    def test_every_caller_digest_matches(self, manifest, fresh):
        bad = _mismatches(manifest["callers"], fresh["callers"])
        assert not bad, _report(manifest, bad)

    def test_failure_fleet_leg_is_not_vacuous(self, fresh):
        fleet = fresh["failure_fleet"]
        assert fleet.n_failures >= 2 and len(fleet.requeue_counts) >= 2
        assert fleet.lost_work_s > 0 and fleet.wasted_energy_j > 0

    def test_batch_leg_is_not_vacuous(self, fresh):
        batch = fresh["batch"]
        assert [w.workload_name for w in batch.windows] == list(gen.BATCH_WORKLOADS)
        assert batch.decisions

    def test_every_claim_value_matches(self, manifest, claims):
        assert len(manifest["claims"]) == 16
        bad = [
            f"{name}: {float.fromhex(want)!r} -> "
            f"{float.fromhex(claims[name]) if name in claims else 'missing'!r}"
            for name, want in sorted(manifest["claims"].items())
            if claims.get(name) != want
        ]
        bad += [f"{name}: new" for name in sorted(set(claims) - set(manifest["claims"]))]
        assert not bad, _report(manifest, bad)


class TestMismatchReport:
    def test_lists_every_pair_not_only_the_first(self):
        pinned = {"a/x/clean": {"pkg_w": "1", "core_w": "2"}, "b/y/clean": {"pkg_w": "3"}}
        current = {"a/x/clean": {"pkg_w": "9", "core_w": "8"}, "b/y/clean": {"pkg_w": "3", "extra": "4"}}
        assert _mismatches(pinned, current) == [
            "a/x/clean core_w: differs",
            "a/x/clean pkg_w: differs",
            "b/y/clean extra: new",
        ]

    def test_byte_digest_catches_signed_zero(self):
        times = np.zeros(2)
        plus = np.array([0.0, 1.0])
        minus = np.array([-0.0, 1.0])
        assert np.array_equal(plus, minus)
        assert gen.sha256_arrays(times, plus) != gen.sha256_arrays(times, minus)
