"""User-facing API mirroring the reference's entry points.

Reference surface (SURVEY.md §2.10 / §3.1-3.3):

- ``run_profile(config)`` dispatch on ``config['profile']['type']``
  (``/root/reference/stelardataprofiler/profiler.py:10-38``),
- ``profile_tabular`` / ``profile_timeseries``
  (``tabular_timeseries/profiler.py:18-64,125-164``),
- ``type_detection`` (the user-editable types dict,
  ``variables/utils.py:288-430``; override re-ingested via
  ``types_dict``),
- ``profile_text`` corpus rollup (``text/profiler.py:1150-1167``),
- JSON output writer (``utils.py:28-75``).

Everything funnels into the distributed accumulator pipeline
(stages/profile.py) — one streaming pass, state folded on the driver.
"""

from __future__ import annotations

import ray.data

from .config import ConstraintConfig, ProfileConfig, ValidationConfig
from .sources.readers import read_tabular, write_profile_json
from .stages.profile import profile_dataset


def profile_tabular(input_path: str | list[str] | "ray.data.Dataset",
                    header: int | None = 0, sep: str = ",",
                    types_dict: dict[str, str] | None = None,
                    light_mode: bool = False,
                    max_freq_distr: int = 10,
                    num_cat_perc_threshold: float = 0.5,
                    extra_geometry_columns: list[dict] | None = None) -> dict:
    """Profile a tabular input → reference-shaped dict
    (tabular_timeseries/profiler.py:18-64). ``extra_geometry_columns``
    derives WKT point columns pre-profile (reference utils.py:82-90)."""
    if isinstance(input_path, ray.data.Dataset):
        ds, filenames = input_path, []
    else:
        ds = read_tabular(input_path, header=header, sep=sep,
                          extra_geometry_columns=extra_geometry_columns)
        filenames = [input_path] if isinstance(input_path, str) else list(input_path)
    cfg = ProfileConfig(types_dict=types_dict, light_mode=light_mode,
                        max_freq_distr=max_freq_distr,
                        num_cat_perc_threshold=num_cat_perc_threshold)
    return profile_dataset(ds, cfg, filenames=filenames)


def profile_timeseries(input_path: str | list[str],
                       ts_mode_datetime_col: str, header: int | None = 0,
                       sep: str = ",", detect_timeseries: bool = True,
                       ts_sample_rows: int = 100_000, **kwargs) -> dict:
    """Timeseries mode: chronological sort on the datetime column
    (reference utils.py:92-108); duplicate timestamps are kept and surface
    in n_distinct/is_unique instead of being silently dropped.

    ``detect_timeseries``: relabel Numeric columns as ``TimeSeries`` when
    autocorrelated (reference ``check_if_timedependent``,
    utils.py:274-285 — threshold 0.1 at lags [1,7,12,24,30]); the probe
    runs on a bounded ordered head sample rather than the whole column."""
    ds = read_tabular(input_path, header=header, sep=sep,
                      ts_mode_datetime_col=ts_mode_datetime_col,
                      extra_geometry_columns=kwargs.pop(
                          "extra_geometry_columns", None))
    cfg = ProfileConfig(**{k: v for k, v in kwargs.items()
                           if k in ProfileConfig.__dataclass_fields__})
    prof = profile_dataset(ds, cfg, filenames=[input_path] if
                           isinstance(input_path, str) else list(input_path))
    prof["table"]["profiler_type"] = "TimeSeries"
    if detect_timeseries:
        from .stages.timeseries import is_time_dependent
        numeric_cols = [v["name"] for v in prof["variables"]
                        if v["type"] == "Numeric"]
        if numeric_cols:
            import pyarrow as pa
            head = pa.concat_tables(list(
                ds.select_columns(numeric_cols).limit(ts_sample_rows)
                .iter_batches(batch_format="pyarrow")))
            for v in prof["variables"]:
                if v["name"] in numeric_cols:
                    x = head.column(v["name"]).to_numpy(zero_copy_only=False)
                    if is_time_dependent(x):
                        v["type"] = "TimeSeries"
            counts: dict[str, int] = {}
            for v in prof["variables"]:
                counts[v["type"]] = counts.get(v["type"], 0) + 1
            prof["table"]["types"] = [
                {"type": k, "count": c} for k, c in sorted(counts.items())]
    return prof


def type_detection(input_path: str | list[str] | "ray.data.Dataset",
                   header: int | None = 0, sep: str = ",") -> dict[str, str]:
    """Detected logical type per column (the user-editable schema object,
    README.md:47-69 of the reference); feed the edited dict back through
    ``profile_tabular(..., types_dict=...)``."""
    if isinstance(input_path, ray.data.Dataset):
        ds = input_path
    else:
        ds = read_tabular(input_path, header=header, sep=sep)
    prof = profile_dataset(ds, ProfileConfig(light_mode=True))
    return {v["name"]: v["type"] for v in prof["variables"]}


def profile_text(input_path: str | list[str] | "ray.data.Dataset",
                 text_col: str = "text") -> dict:
    """Corpus text profile (text/profiler.py:538-1111 rollup)."""
    from .pipelines.text_corpus import profile_text_corpus
    if isinstance(input_path, ray.data.Dataset):
        ds = input_path
    else:
        ds = read_tabular(input_path)
    return profile_text_corpus(ds, text_col=text_col)


def validate_transcripts(input_dir: str, output_dir: str,
                         tool_registry: tuple[str, ...] = (),
                         baseline_profile: dict | None = None,
                         **constraint_kwargs) -> dict:
    """North-rule flagship: full profile + constraint pass + drift,
    resumable per partition (pipelines/validate.py)."""
    from .pipelines.validate import run_validation
    cfg = ValidationConfig(
        constraints=ConstraintConfig(tool_registry=tuple(tool_registry),
                                     **constraint_kwargs),
        output_dir=output_dir)
    return run_validation(input_dir, cfg, baseline_profile=baseline_profile)


def run_profile(config: dict) -> dict:
    """Config-driven dispatch (reference profiler.py:10-38 +
    config_template.json): ``{"input": {...}, "output": {...},
    "profile": {"type": ...}}``."""
    ptype = str(config["profile"]["type"]).lower()
    inp = config.get("input", {})
    out = config.get("output", {})
    files = inp.get("files") or inp.get("path")
    params = {k: v for k, v in config["profile"].items() if k != "type"}

    if ptype in ("tabular", "vector"):
        prof = profile_tabular(files, header=inp.get("header", 0),
                               sep=inp.get("sep", ","), **params)
    elif ptype == "timeseries":
        prof = profile_timeseries(files, inp.get("ts_mode_datetime_col"),
                                  header=inp.get("header", 0),
                                  sep=inp.get("sep", ","), **params)
    elif ptype in ("text", "textual"):
        prof = profile_text(files, **params)
    elif ptype in ("hierarchical", "json"):
        from .pipelines.hierarchical import profile_hierarchical
        prof = profile_hierarchical(files, **params)
    elif ptype == "transcripts":
        prof = validate_transcripts(files, out.get("dir", "/tmp/dpr_out"),
                                    **params)
    else:
        raise ValueError(f"unsupported profile type {ptype!r} "
                         "(supported: tabular, vector, timeseries, text, "
                         "hierarchical, transcripts; rdf/raster are out of "
                         "scope per SURVEY.md §2.1)")
    if out.get("json"):
        write_profile_json(prof, out["json"])
    return prof
