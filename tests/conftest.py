import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def transcripts_dir():
    from data_profiler_ray.synthetic import transcripts_path
    return transcripts_path(20000, seed=42)


@pytest.fixture(scope="session")
def dirty_transcripts_dir():
    from data_profiler_ray.synthetic import transcripts_path
    return transcripts_path(
        20000, seed=42, dup_frac=0.01, gap_frac=0.005, bad_role_frac=0.01,
        ts_regression_frac=0.005, dangling_tool_frac=0.2)


@pytest.fixture
def one_partition(monkeypatch):
    """``run_validation`` at one partition, as at one CPU, in the 4-CPU
    session: one read task (``stages.plan._cpus``) and one key range
    (``segments._MAX_CPU_WIDTH``), so its stream is one read task and one
    range task, which checks the one sorted run as it is. ``Dataset.sort``
    and ``Dataset.repartition`` raise if a Ray Data exchange is built."""
    import ray.data

    from data_profiler_ray.stages import plan, segments

    def no_exchange(self, *args, **kwargs):
        raise AssertionError("the one-partition stream built an exchange")

    monkeypatch.setattr(plan, "_cpus", lambda: 1)
    monkeypatch.setattr(segments, "_MAX_CPU_WIDTH", 1)
    monkeypatch.setattr(ray.data.Dataset, "sort", no_exchange)
    monkeypatch.setattr(ray.data.Dataset, "repartition", no_exchange)
