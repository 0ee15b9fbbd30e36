"""Tests for the self-tuning layer: profile, search, and knob wiring.

Three layers, in increasing integration order:

* ``MachineProfile`` document semantics (roundtrip, window tables,
  resolution precedence, corrupt-file tolerance);
* the pure search primitives and the :class:`Tuner` driven entirely by
  stubbed measurement callables (no kernel ever runs);
* the acceptance property of the whole feature -- knobs recorded in a
  profile demonstrably take effect where they are wired:
  ``pippenger_window_size``, ``get_backend`` and ``ProofService`` -- and
  a profile that is stale or out of range never breaks proving.
"""

from __future__ import annotations

import json

import pytest

from repro.curves.g1 import G1Point
from repro.curves.msm import msm_g1, pippenger_window_size
from repro.field.backend import (
    available_field_backends,
    resolve_field_backend,
    set_field_backend,
)
from repro.parallel.backend import ProcessBackend, SerialBackend, get_backend
from repro.tuning import (
    MachineProfile,
    Tuner,
    TuningResult,
    grid_search,
    hill_climb,
    load_profile,
)
from repro.tuning.profile import (
    MAX_WINDOW_WIDTH,
    PROFILE_ENV,
    active_profile,
    active_profile_metadata,
    clear_profile_cache,
    set_profile,
)


@pytest.fixture(autouse=True)
def _fresh_profile_state(monkeypatch):
    """Each test starts unpinned with profile loading disabled."""
    monkeypatch.setenv(PROFILE_ENV, "off")
    clear_profile_cache()
    yield
    clear_profile_cache()
    set_field_backend(None)


class TestMachineProfile:
    def test_dict_roundtrip(self):
        profile = MachineProfile(
            compute_backend="process",
            workers=4,
            max_batch=8,
            min_msm_chunk=1024,
            pippenger_windows={"signed": [[0, 9], [4096, 11]]},
            measurements={"reference_baseline_seconds": 1.5},
            machine={"cpu_count": 4},
            created_at="2026-08-08T00:00:00+00:00",
        )
        back = MachineProfile.from_dict(profile.to_dict())
        assert back.to_dict() == profile.to_dict()

    def test_from_dict_sorts_window_rows_and_coerces_ints(self):
        profile = MachineProfile.from_dict(
            {"pippenger_windows": {"signed": [["4096", "11"], [0, 9]]}}
        )
        assert profile.pippenger_windows == {"signed": [[0, 9], [4096, 11]]}

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError):
            MachineProfile.from_dict(["not", "a", "profile"])

    def test_window_override_takes_last_row_at_or_below(self):
        profile = MachineProfile(
            pippenger_windows={"signed": [[64, 6], [4096, 11]]}
        )
        assert profile.window_override(32) is None
        assert profile.window_override(64) == 6
        assert profile.window_override(4095) == 6
        assert profile.window_override(1 << 20) == 11

    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "profile.json"
        profile = MachineProfile(compute_backend="process", max_batch=3)
        written = profile.save(str(path))
        assert written == str(path)
        loaded = load_profile(str(path))
        assert loaded.compute_backend == "process"
        assert loaded.max_batch == 3
        assert loaded.path == str(path)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 0]],  # every msm_g1 would die on a negative shift count
            [[0, -3]],
            [[0, MAX_WINDOW_WIDTH + 1]],
            [[0, 40]],  # 2^39 bucket lists per window
            [[-1, 8]],
            [[0, 9], [512, 0]],
            [7],  # not a [min_pairs, width] pair at all
        ],
    )
    def test_from_dict_rejects_out_of_range_window_rows(self, rows):
        with pytest.raises(ValueError):
            MachineProfile.from_dict({"pippenger_windows": {"signed": rows}})

    def test_tuner_window_bounds_are_the_loaders(self):
        # Whatever the hill-climb can write, the loader accepts.
        assert Tuner.WINDOW_HI == MAX_WINDOW_WIDTH
        for width in (Tuner.WINDOW_LO, Tuner.WINDOW_HI):
            doc = MachineProfile(
                pippenger_windows={"signed": [[0, width]]}
            ).to_dict()
            assert MachineProfile.from_dict(doc).window_override(1) == width

    def test_from_dict_ignores_keys_of_older_versions(self):
        profile = MachineProfile.from_dict(
            {
                "field_backend": "numpy",
                "pippenger_windows": {
                    "signed": [[0, 9]],
                    "unsigned": [[0, 0]],
                },
            }
        )
        assert not hasattr(profile, "field_backend")
        assert profile.pippenger_windows == {"signed": [[0, 9]]}
        assert "field_backend" not in profile.to_dict()


class TestProfileResolution:
    def test_env_off_disables_loading(self, tmp_path, monkeypatch):
        MachineProfile(max_batch=3).save(str(tmp_path / "profile.json"))
        monkeypatch.setenv(PROFILE_ENV, "off")
        clear_profile_cache()
        assert active_profile() is None
        assert active_profile_metadata() == {"loaded": False}

    def test_env_path_loads_profile(self, tmp_path, monkeypatch):
        path = tmp_path / "profile.json"
        MachineProfile(max_batch=3, workers=2).save(str(path))
        monkeypatch.setenv(PROFILE_ENV, str(path))
        clear_profile_cache()
        profile = active_profile()
        assert profile is not None and profile.max_batch == 3
        meta = active_profile_metadata()
        assert meta["loaded"] is True
        assert meta["path"] == str(path)
        assert meta["workers"] == 2

    def test_corrupt_profile_treated_as_absent(self, tmp_path, monkeypatch):
        path = tmp_path / "profile.json"
        path.write_text("{not json")
        monkeypatch.setenv(PROFILE_ENV, str(path))
        clear_profile_cache()
        assert active_profile() is None

    def test_missing_profile_treated_as_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, str(tmp_path / "nope.json"))
        clear_profile_cache()
        assert active_profile() is None

    def test_out_of_range_window_file_treated_as_absent(
        self, tmp_path, monkeypatch
    ):
        """A stale profile must never break proving: a window width the
        scatter cannot run is a rejected file, not a dead ``msm_g1``."""
        path = tmp_path / "profile.json"
        path.write_text(
            json.dumps({"pippenger_windows": {"signed": [[0, 0]]}})
        )
        monkeypatch.setenv(PROFILE_ENV, str(path))
        clear_profile_cache()
        assert active_profile() is None
        g = G1Point.generator()
        got = msm_g1([(g.x, g.y)] * 3, [5, 6, 7])
        assert G1Point.from_jacobian(got) == g * 18

    def test_profile_written_by_older_tune_still_loads_and_proves(
        self, tmp_path, monkeypatch
    ):
        """``field_backend`` and the ``unsigned`` table are ignored; the
        rest of the file still steers, and a prove under it succeeds."""
        from repro.engine import ProvingEngine

        path = tmp_path / "profile.json"
        path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "field_backend": "numpy",
                    "max_batch": 5,
                    "pippenger_windows": {
                        "signed": [[0, 4]],
                        "unsigned": [[0, 7]],
                    },
                }
            )
        )
        monkeypatch.setenv(PROFILE_ENV, str(path))
        monkeypatch.delenv("ZKROWNN_FIELD_BACKEND", raising=False)
        clear_profile_cache()
        profile = active_profile()
        assert profile is not None and profile.max_batch == 5
        assert active_profile_metadata()["loaded"] is True
        assert resolve_field_backend("auto") in available_field_backends()
        assert pippenger_window_size(4096) == 4

        def synthesize(b):
            out = b.public_output("y")
            w = b.private_input("x", 3)
            b.bind_output(out, b.mul(b.mul(w, w), w) + 1)

        engine = ProvingEngine()
        compiled, synthesis = engine.synthesize("cube", synthesize)
        proof = engine.prove(compiled, synthesis, seed=5, setup_seed=6)
        assert engine.verify(compiled, synthesis.public_values, proof)

    def test_pin_beats_environment(self, tmp_path, monkeypatch):
        path = tmp_path / "profile.json"
        MachineProfile(max_batch=3).save(str(path))
        monkeypatch.setenv(PROFILE_ENV, str(path))
        clear_profile_cache()
        set_profile(MachineProfile(max_batch=5))
        profile = active_profile()
        assert profile is not None and profile.max_batch == 5
        set_profile(None)
        reloaded = active_profile()
        assert reloaded is not None and reloaded.max_batch == 3


class TestKnobsTakeEffect:
    """The acceptance criterion: a written profile steers real startup."""

    def test_auto_field_backend_ignores_unavailable_winner(self):
        # A profile naming a backend this version does not have (older
        # `zkrownn tune` runs recorded one) must not break anything: the
        # key is dropped and auto resolves from importability alone.
        set_profile(
            MachineProfile.from_dict(
                {"field_backend": "definitely-not-a-backend"}
            )
        )
        fallback = resolve_field_backend("auto")
        assert fallback in available_field_backends()

    def test_window_size_prefers_profile_table(self):
        static = pippenger_window_size(4096)
        set_profile(
            MachineProfile(pippenger_windows={"signed": [[0, 13]]})
        )
        assert pippenger_window_size(4096) == 13
        assert pippenger_window_size(7) == 13
        set_profile(None)
        assert pippenger_window_size(4096) == static

    def test_get_backend_uses_profile_compute_settings(self, monkeypatch):
        monkeypatch.delenv("ZKROWNN_BACKEND", raising=False)
        monkeypatch.delenv("ZKROWNN_WORKERS", raising=False)
        set_profile(
            MachineProfile(
                compute_backend="process", workers=2, min_msm_chunk=256
            )
        )
        backend = get_backend()
        try:
            assert isinstance(backend, ProcessBackend)
            assert backend.workers == 2
            assert backend.min_msm_chunk == 256
        finally:
            backend.close()

    def test_env_beats_profile_compute_backend(self, monkeypatch):
        monkeypatch.setenv("ZKROWNN_BACKEND", "serial")
        set_profile(MachineProfile(compute_backend="process", workers=2))
        assert isinstance(get_backend(), SerialBackend)

    def test_get_backend_defaults_serial_without_profile(self, monkeypatch):
        monkeypatch.delenv("ZKROWNN_BACKEND", raising=False)
        assert isinstance(get_backend(), SerialBackend)

    def test_proof_service_uses_profile_max_batch(self, tmp_path):
        from repro.service.registry import ClaimRegistry
        from repro.service.server import ProofService

        set_profile(MachineProfile(max_batch=3))
        service = ProofService(ClaimRegistry(tmp_path / "reg"))
        assert service.scheduler.max_batch == 3

    def test_proof_service_explicit_max_batch_beats_profile(self, tmp_path):
        from repro.service.registry import ClaimRegistry
        from repro.service.server import ProofService

        set_profile(MachineProfile(max_batch=3))
        service = ProofService(ClaimRegistry(tmp_path / "reg"), max_batch=5)
        assert service.scheduler.max_batch == 5

    def test_written_profile_loads_end_to_end(self, tmp_path, monkeypatch):
        # The full chain a user sees: `zkrownn tune --out p.json`, then
        # ZKROWNN_PROFILE=p.json in the proving environment.
        path = tmp_path / "profile.json"
        MachineProfile(
            compute_backend="serial",
            max_batch=5,
            pippenger_windows={"signed": [[0, 12]]},
        ).save(str(path))
        monkeypatch.setenv(PROFILE_ENV, str(path))
        monkeypatch.delenv("ZKROWNN_BACKEND", raising=False)
        clear_profile_cache()
        assert pippenger_window_size(4096) == 12
        assert isinstance(get_backend(), SerialBackend)


class TestSearchPrimitives:
    def test_grid_search_picks_minimum(self):
        table = {"a": 3.0, "b": 1.0, "c": 2.0}
        best, trials = grid_search(list(table), table.__getitem__)
        assert best == "b"
        assert [t["candidate"] for t in trials] == ["a", "b", "c"]
        assert [t["seconds"] for t in trials] == [3.0, 1.0, 2.0]

    def test_grid_search_tie_prefers_earlier_candidate(self):
        best, _ = grid_search(["first", "second"], lambda _c: 1.0)
        assert best == "first"

    def test_grid_search_rejects_empty(self):
        with pytest.raises(ValueError):
            grid_search([], lambda _c: 0.0)

    def test_hill_climb_walks_to_minimum(self):
        best, trials = hill_climb(8, lambda c: (c - 11) ** 2, lo=4, hi=16)
        assert best == 11
        probed = [t["candidate"] for t in trials]
        assert probed == sorted(set(probed), key=probed.index)

    def test_hill_climb_memoizes_probes(self):
        calls = []

        def measure(c):
            calls.append(c)
            return abs(c - 6)

        best, _ = hill_climb(5, measure, lo=4, hi=16)
        assert best == 6
        assert len(calls) == len(set(calls))

    def test_hill_climb_respects_bounds(self):
        best, trials = hill_climb(4, lambda c: c, lo=4, hi=16)
        assert best == 4
        assert all(4 <= t["candidate"] <= 16 for t in trials)
        with pytest.raises(ValueError):
            hill_climb(3, lambda c: c, lo=4, hi=16)


def _stubbed_tuner(**overrides):
    """A Tuner whose every measurement is a deterministic table lookup."""
    defaults = dict(
        quick=True,
        timer=iter(float(i) for i in range(10_000)).__next__,
        # Optimal window width 7 regardless of size.
        measure_window=lambda _n, c: float((c - 7) ** 2),
        # Serial wins the prove stage.
        measure_prove=lambda backend, workers: (
            1.0 if backend == "serial" else 5.0 + (workers or 0)
        ),
        measure_chunk=lambda _workers, chunk: float(chunk),
        # Per-claim cost favours batch=4: 4/2=2.0, 6/4=1.5.
        measure_batch=lambda b: {2: 4.0, 4: 6.0}[b],
        measure_reference=iter([10.0, 5.0]).__next__,
    )
    defaults.update(overrides)
    return Tuner(**defaults)


class TestTunerStubbed:
    def test_run_assembles_profile_from_stage_winners(self):
        result = _stubbed_tuner().run()
        assert isinstance(result, TuningResult)
        profile = result.profile
        assert profile.compute_backend == "serial"
        assert profile.min_msm_chunk is None  # serial won: chunk stage skipped
        assert profile.max_batch == 4
        assert profile.pippenger_windows == {"signed": [[512, 7]]}
        assert result.baseline_seconds == 10.0
        assert result.tuned_seconds == 5.0
        assert result.speedup == 2.0

    def test_run_restores_ambient_state(self):
        sentinel = MachineProfile(max_batch=9)
        set_profile(sentinel)
        _stubbed_tuner().run()
        assert active_profile() is sentinel

    def test_chunk_stage_runs_when_process_wins(self):
        result = _stubbed_tuner(
            measure_prove=lambda backend, workers: (
                1.0 if backend == "process" else 5.0
            ),
        ).run()
        assert result.profile.compute_backend == "process"
        assert result.profile.min_msm_chunk == 512  # only quick candidate

    def test_measurements_embed_trials_and_delta(self):
        result = _stubbed_tuner().run()
        measurements = result.profile.measurements
        assert measurements["reference_baseline_seconds"] == 10.0
        assert measurements["reference_tuned_seconds"] == 5.0
        json.dumps(measurements)  # must be JSON-serializable as persisted
        stages = measurements["trials"]
        assert "pippenger_windows" in stages and "max_batch" in stages

    def test_summary_is_json_serializable(self):
        summary = _stubbed_tuner().run().summary()
        json.dumps(summary)
        assert summary["speedup"] == 2.0
