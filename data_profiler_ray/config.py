"""Configuration objects for the Ray-Data profiling + validation engine.

Plays the role of the reference's JSON config + tuning params
(``/root/reference/config_template.json:1-35``,
``stelardataprofiler/tabular_timeseries/profiler.py:18-23,125-130``): the
profiler knobs (``max_freq_distr``, ``num_cat_perc_threshold``,
``light_mode``) appear here with the same semantics, plus the new
constraint / drift / checkpoint surface required by the north rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ProfileConfig:
    title: str = "profile"
    columns: list[str] | None = None       # None = all columns
    text_stats: bool = True                # A12 textual bundles (costly on huge text)
    light_mode: bool = False               # skip per-type describes (profiler.py:428)
    max_freq_distr: int = 10               # top-K in frequency distributions
    num_cat_perc_threshold: float = 0.5    # numeric->categorical rule threshold
    batch_size: int | None = None   # None = one batch per block (max parallelism)
    merge_shards: int = 32                 # tree-reduction fan-in before driver merge
    types_dict: dict[str, str] | None = None  # user override of detected types
    geometry_columns: list[str] | None = None  # WKT columns → GeometryAccumulator
    geometry_crs: str = "EPSG:4326"        # EPSG:326xx/327xx reproject (r5)


@dataclass
class ConstraintConfig:
    """Transcript-table constraint suite (north rule)."""

    key_columns: tuple[str, str] = ("conv_id", "turn_idx")   # uniqueness key
    group_column: str = "conv_id"
    order_column: str = "turn_idx"
    ts_column: str = "ts"
    role_column: str = "role"
    role_domain: tuple[str, ...] = ("user", "assistant", "system", "tool")
    tool_column: str = "tool"
    tool_registry: tuple[str, ...] = ()     # allowed tool names (broadcast side)
    require_contiguous_turns: bool = True   # turn_idx must be 0..n-1 per conv
    max_violations_per_kind: int = 100_000  # cap violation rows kept per kind


@dataclass
class DriftConfig:
    numeric_psi_bins: int = 10
    psi_threshold: float = 0.2      # common industry threshold
    ks_threshold: float = 0.1


@dataclass
class ValidationConfig:
    profile: ProfileConfig = field(default_factory=ProfileConfig)
    constraints: ConstraintConfig = field(default_factory=ConstraintConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)
    output_dir: str = "/tmp/dpr_out"
