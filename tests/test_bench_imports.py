"""The benchmark's layer probes import engine names at module level, and
``perfbench/run.py`` imports that module on every measured call, so a
deleted or renamed name fails every benchmark run, untraced ones too."""


def test_perfbench_layers_imports():
    import perfbench.layers as layers
    for name in ("profile_partials_by_part", "merge_state_blobs_distributed",
                 "conversation_checks_parts", "dumps_state",
                 "finalize_profile", "shuffle_width", "make_accumulator"):
        assert callable(getattr(layers, name)), name
