"""Names the benchmark uses: its workloads and its metrics, with each
metric's unit, which direction is better and, for per-layer metrics, what
it should move.

End-to-end metrics come from runs with tracing off; per-layer metrics from
runs with ``--trace 1``.  BENCHMARK.json lists the same names and units.
"""

WORKLOADS = ("cli", "sweep", "oracle", "qmle")

# name, unit, better
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("success_rate", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Per-layer metrics: name, unit, better, and the end-to-end metric and
# workload each should move (and where it should not).  ``calls``, ``errors``
# and counts are per op; ``self_ms`` is self time per op (span minus child
# spans); ``p50_us`` is per call.
PER_LAYER = [
    ("cli.import_ms", "ms", "lower",
     "op_p50_ms, ops_per_s on cli; setup_s everywhere; not warm sweep/oracle/qmle"),
    ("cli.run.self_ms", "ms", "lower",
     "op_p90_ms, ops_per_s, peak_rss_mb on sweep; not oracle, qmle"),
    ("cli.run.errors", "count", "lower",
     "success_rate on cli, oracle (D1 escapes as TypeError)"),
    ("cli.output_bytes", "bytes", "lower",
     "op_p90_ms, ops_per_s, peak_rss_mb on sweep; not oracle, qmle"),
    ("models.load_model_spec.self_ms", "ms", "lower",
     "ops_per_s on qmle; op_p90_ms on sweep; not oracle"),
    ("models.state_at.calls", "count", "lower",
     "ops_per_s on qmle; op_p90_ms on sweep (Fock); not oracle"),
    ("models.state_at.self_ms", "ms", "lower",
     "ops_per_s on qmle; op_p90_ms on sweep (Fock); not oracle"),
    ("models.state_at.p50_us", "us", "lower",
     "ops_per_s on qmle; op_p90_ms on sweep (Fock); not oracle"),
    ("models.tangents.self_ms", "ms", "lower",
     "ops_per_s on qmle; op_p90_ms on sweep; not oracle"),
    ("models.frame_at.self_ms", "ms", "lower",
     "ops_per_s on qmle; op_p90_ms on sweep; not oracle"),
    ("operators.hermitian_eigendecomposition.calls", "count", "lower",
     "ops_per_s on qmle (reopt 1); op_p50_ms on sweep; not oracle, cli"),
    ("operators.hermitian_eigendecomposition.self_ms", "ms", "lower",
     "ops_per_s on qmle (reopt 1); op_p50_ms on sweep; not oracle, cli"),
    ("operators.matrix_exponential_skew.self_ms", "ms", "lower",
     "ops_per_s on qmle (reopt 1); op_p50_ms on sweep; not oracle, cli"),
    ("operators.pure_state.self_ms", "ms", "lower",
     "ops_per_s on qmle (reopt 1); op_p50_ms on sweep; not oracle, cli"),
    ("geometry.info_geometry.self_ms", "ms", "lower",
     "op_p50_ms on sweep, qmle (reopt 1); not oracle"),
    ("bounds.cr_two_param.self_ms", "ms", "lower",
     "op_p50_ms on sweep, qmle (reopt 1); not oracle"),
    ("bounds.cr_coherent.self_ms", "ms", "lower",
     "op_p50_ms on sweep, qmle (reopt 1); not oracle"),
    ("measurements.optimal_vectors_two_param.self_ms", "ms", "lower",
     "ops_per_s on qmle (reopt 1); op_p50_ms on sweep; not oracle, qmle reopt 20"),
    ("measurements.construct_pvm_from_vectors.self_ms", "ms", "lower",
     "ops_per_s on qmle (reopt 1); op_p50_ms on sweep; not oracle, qmle reopt 20"),
    ("measurements.naimark_compress.self_ms", "ms", "lower",
     "ops_per_s on qmle (reopt 1); op_p50_ms on sweep; not oracle, qmle reopt 20"),
    ("measurements.commuting_sld_estimator.self_ms", "ms", "lower",
     "op_p50_ms on sweep; not oracle, qmle"),
    ("measurements.commuting_sld_estimator.errors", "count", "lower",
     "success_rate on sweep, cli (D2)"),
    ("oracle.oracle_min_weighted_variance.calls", "count", "lower",
     "ops_per_s, op_p50_ms on oracle (2 searches per interval op today); "
     "not sweep, qmle, cli"),
    ("oracle.oracle_min_weighted_variance.self_ms", "ms", "lower",
     "ops_per_s, op_p50_ms on oracle; not sweep, qmle, cli"),
    ("oracle.oracle_min_weighted_variance.errors", "count", "lower",
     "success_rate on oracle, cli (D1)"),
    ("oracle.proposals", "count", "lower",
     "ops_per_s, op_p50_ms on oracle; not sweep, qmle, cli"),
    ("oracle.proposals_per_s", "1/s", "higher",
     "ops_per_s, op_p50_ms on oracle; not sweep, qmle, cli"),
    ("oracle.rel_gap", "ratio", "lower",
     "recorded, not gated: oracle value above the closed form"),
    ("simulate.simulate_gqmle.self_ms", "ms", "lower",
     "ops_per_s on qmle (reopt 20 mostly); nothing else"),
    ("simulate.samples_per_s", "1/s", "higher",
     "ops_per_s on qmle; nothing else"),
    ("simulate.excluded_trials", "count", "lower",
     "recorded: QMLE trials excluded per op"),
    ("simulate.risk_ratio", "ratio", "lower",
     "recorded, not gated: scaled risk / bound (D3 inflates it on reopt 1)"),
    ("trace.overhead", "ratio", "lower",
     "traced wall / untraced wall of the same rounds; no end-to-end metric"),
]
