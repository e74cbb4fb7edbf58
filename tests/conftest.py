import os
import signal
import subprocess
import sys

import pytest
import ray

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def small_fixture():
    """Shared small fixture tables (generated once per session)."""
    from whoiswho_ray.fixtures import FixtureSpec, generate_tables

    spec = FixtureSpec(n_blocks=8, hot_factor=4, seed=42)
    return spec, generate_tables(spec)


@pytest.fixture
def run_at_one_cpu():
    """``run(body, *args, timeout=120)``: run the script ``body`` in a child
    process that first starts its own Ray session of one CPU (``sys.argv``
    holds ``args``), and return its stdout. The test fails if the child
    runs past ``timeout`` seconds (what it printed so far is in the
    message) or exits non-zero. One CPU is where a stage that holds the
    only slot its upstream tasks need never finishes."""

    def run(body: str, *args, timeout: int = 120) -> str:
        script = ("import sys, ray\n"
                  "ray.init(address='local', num_cpus=1, include_dashboard=False,"
                  " logging_level='ERROR')\n" + body)
        env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *map(str, args)], cwd=REPO, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            pytest.fail(f"did not finish in {timeout} s at num_cpus=1; printed:\n{out}")
        assert proc.returncode == 0, err[-3000:]
        return out

    return run
