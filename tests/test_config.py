"""One reader for the environment: ``repro.config``.

Every ``ZKROWNN_*`` setting is parsed by the rule of its kind, a bad value
is refused by name, the README's table lists exactly the variables the
module reads, and no other module under ``src/repro`` touches
``os.environ``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import config
from repro.circuit import CircuitBuilder
from repro.engine import ProvingEngine
from repro.parallel import SerialBackend, get_backend

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _run(code, **env):
    """Run ``code`` in a fresh interpreter with ``env`` added."""
    full = {k: v for k, v in os.environ.items() if not k.startswith("ZKROWNN_")}
    full.update(env, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=full, timeout=120,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


class TestRules:
    @pytest.mark.parametrize("raw, value", [
        ("1", True), ("true", True), (" ON ", True), ("Yes", True),
        ("0", False), ("FALSE", False), ("off", False), (" no", False),
    ])
    def test_flag_words(self, raw, value):
        assert config.flag("X", raw) is value

    @pytest.mark.parametrize("raw", ["garbage", "maybe", "disabled", "2"])
    def test_flag_refuses_anything_else(self, raw):
        with pytest.raises(config.ConfigError, match=r"X=.*'yes'"):
            config.flag("X", raw)

    def test_choice_is_stripped_and_lower_cased(self):
        assert config.choice("X", " Strict\n", config.AUDIT_MODES) == "strict"
        with pytest.raises(config.ConfigError) as refused:
            config.choice("X", "loud", config.AUDIT_MODES)
        assert str(refused.value) == (
            "X='loud': expected one of 'off', 'warn', 'strict'"
        )

    @pytest.mark.parametrize("raw, value", [("0", 0), (" 3 ", 3), ("12", 12)])
    def test_worker_count(self, raw, value):
        assert config.worker_count("X", raw) == value

    @pytest.mark.parametrize("raw", ["-1", "two", "1.5"])
    def test_worker_count_refuses_negatives_and_words(self, raw):
        with pytest.raises(config.ConfigError, match="integer >= 0"):
            config.worker_count("X", raw)

    def test_fault_plan_inline_and_at_path(self, tmp_path):
        text = '{"seed": 3, "specs": []}'
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert config.fault_plan("X", text) == {"seed": 3, "specs": []}
        assert config.fault_plan("X", f"@{path}") == {"seed": 3, "specs": []}

    @pytest.mark.parametrize("raw", ["{not json", "[1]", '{"seed": 1}',
                                     "@/no/such/plan.json"])
    def test_fault_plan_refusals_name_the_variable(self, raw):
        with pytest.raises(config.ConfigError, match="^X="):
            config.fault_plan("X", raw)


@pytest.fixture
def unset(monkeypatch):
    """No ZKROWNN_* variable set; ``unset.setenv`` sets one for the test."""
    for name in [n for n in os.environ if n.startswith("ZKROWNN_")]:
        monkeypatch.delenv(name)
    return monkeypatch


class TestSettings:
    def test_defaults_when_unset_or_blank(self, unset):
        unset.setenv("ZKROWNN_OBS", "  ")
        unset.setenv("ZKROWNN_PROFILE", "x")
        assert config.load() == config.Settings(
            backend=None, workers=0,
            circuit_audit="off", log_level="warning", obs=True,
            profile_kernels=False, fault_plan=None,
            sources={key: "default" for key in config.VARIABLES},
        )

    def test_values_and_sources(self, unset):
        for name, value in [("ZKROWNN_BACKEND", "Process"), ("ZKROWNN_WORKERS", "3"),
                            ("ZKROWNN_OBS", "off"), ("ZKROWNN_BENCH_SCALE", "tiny")]:
            unset.setenv(name, value)
        settings = config.load()
        assert (settings.backend, settings.workers, settings.obs) == (
            "process", 3, False
        )
        shown = settings.provenance()
        assert list(shown) == [v.env for v in config.VARIABLES.values()]
        assert shown["ZKROWNN_WORKERS"] == {"value": 3, "source": "env"}
        assert shown["ZKROWNN_LOG_LEVEL"] == {
            "value": "warning", "source": "default"
        }

    def test_every_bad_value_is_refused_by_name(self, unset):
        for key, var in config.VARIABLES.items():
            with unset.context() as env:
                env.setenv(var.env, "-1" if key != "workers" else "x")
                with pytest.raises(config.ConfigError, match=var.env):
                    config.load()


class TestTheParsersThatDisagreed:
    """Each case behaved differently before there was one reader."""

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_audit_sites_is_gone(self, monkeypatch, value):
        monkeypatch.setenv("ZKROWNN_AUDIT_SITES", value)
        builder = CircuitBuilder("sites")
        with builder.scope("gadget"):
            x = builder.private_input("x", 3)
            builder.mul(x, x)
        assert set(builder.cs.variable_sites[1:]) == {"gadget"}

    @pytest.mark.parametrize("name, value", [
        ("ZKROWNN_OBS", "garbage"),
        ("ZKROWNN_PROFILE_KERNELS", "maybe"),
        ("ZKROWNN_LOG_LEVEL", "verbose"),
    ])
    def test_import_time_switches_refuse_bad_values(self, name, value):
        done = _run("import repro.obs", **{name: value})
        assert done.returncode != 0
        assert f"ConfigError: {name}={value!r}" in done.stderr

    def test_negative_workers_refused(self, monkeypatch):
        monkeypatch.setenv("ZKROWNN_WORKERS", "-3")
        with pytest.raises(ValueError, match="ZKROWNN_WORKERS") as refused:
            get_backend("process")
        assert refused.type.__name__ == "ConfigError"

    def test_audit_mode_is_stripped_and_lower_cased(self, monkeypatch):
        monkeypatch.setenv("ZKROWNN_CIRCUIT_AUDIT", " WARN ")
        assert ProvingEngine(backend=SerialBackend()).audit_mode == "warn"

    def test_one_audit_mode_check_for_engine_and_service(self, tmp_path):
        from repro.service import ClaimRegistry, ProofService

        engine = ProvingEngine(backend=SerialBackend())
        with pytest.raises(config.ConfigError, match="audit mode"):
            engine.audit_mode = "loud"
        with pytest.raises(config.ConfigError, match="audit mode"):
            ProofService(ClaimRegistry(tmp_path), engine=engine,
                         audit_mode="loud")
        ProofService(ClaimRegistry(tmp_path), engine=engine,
                     audit_mode="Strict")
        assert engine.audit_mode == "strict"


class TestOneReader:
    def test_no_other_module_reads_the_environment(self):
        readers = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            if path.name == "config.py" and path.parent.name == "repro":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("environ", "getenv")
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                ) or (
                    isinstance(node, ast.ImportFrom) and node.module == "os"
                    and {a.name for a in node.names} & {"environ", "getenv"}
                ):
                    readers.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert readers == []

    def test_readme_lists_every_variable(self):
        def default(value):
            if value is None:
                return "unset"
            if isinstance(value, bool):
                return "on" if value else "off"
            return f"`{value}`"

        rows = ["| variable | accepts | default | effect |", "|---|---|---|---|"]
        rows += [
            f"| `{var.env}` | {var.accepts} | {default(var.default)} | "
            f"{var.effect} |"
            for var in config.VARIABLES.values()
        ]
        table = "\n".join(rows)
        assert table in (ROOT / "README.md").read_text(), (
            "the README's Knobs table should read:\n" + table
        )

    def test_stats_report_each_setting_and_its_source(
        self, tmp_path, monkeypatch
    ):
        from repro.service import ClaimRegistry, ProofService

        monkeypatch.setenv("ZKROWNN_CIRCUIT_AUDIT", "warn")
        monkeypatch.delenv("ZKROWNN_LOG_LEVEL", raising=False)
        service = ProofService(
            ClaimRegistry(tmp_path), engine=ProvingEngine(backend=SerialBackend())
        )
        shown = service.stats()["config"]
        assert shown["ZKROWNN_CIRCUIT_AUDIT"] == {"value": "warn", "source": "env"}
        assert shown["ZKROWNN_LOG_LEVEL"] == {
            "value": "warning", "source": "default"
        }
        assert len(shown) == 7


class TestNoZeroThreadService:
    def test_scheduler_refuses_fewer_than_one_worker(self, tmp_path):
        # The dispatch threads are the backend's workers: a backend that
        # reports none would leave every claim queued for good.
        from repro.service import ClaimRegistry, ProofScheduler

        for workers in (0, -3):
            backend = SerialBackend()
            backend.workers = workers
            with pytest.raises(ValueError, match="workers must be at least 1"):
                ProofScheduler(
                    ProvingEngine(backend=backend), ClaimRegistry(tmp_path)
                )

    def test_serve_refuses_bad_worker_counts(self, tmp_path):
        flag = _run(
            "from repro.cli import main; "
            f"main(['serve', '--registry', {str(tmp_path)!r}, '--workers', '-2'])"
        )
        assert flag.returncode == 2
        assert "--workers: '-2' is not an integer >= 1" in flag.stderr
        env = _run(
            "import sys; from repro.cli import main; "
            f"sys.exit(main(['serve', '--registry', {str(tmp_path)!r}]))",
            ZKROWNN_WORKERS="-1",
        )
        assert env.returncode == 2
        assert "ZKROWNN_WORKERS='-1'" in env.stderr
        assert "Traceback" not in env.stderr
