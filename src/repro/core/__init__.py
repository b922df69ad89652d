"""The characterization framework: configurations, experiments, results."""

from .. import _lazy_exports

__getattr__, __dir__ = _lazy_exports(__name__, {
    ".advisor": ("Recommendation", "check_carveout", "check_input_size",
                 "check_launch_geometry", "recommend_mode"),
    ".configs": ("ALL_MODES", "TransferMode"),
    ".discussion": ("DiscussionSummary", "ShareSummary", "section6_shares"),
    ".execution": ("execute_program", "managed_capacity_ratio"),
    ".multigpu": ("MultiGpuResult", "run_multi_gpu", "scaling_study",
                  "shard_program"),
    ".pipeline_model": ("BatchResult", "interjob_speedup", "run_job_batch"),
    ".roofline": ("Bottleneck", "RooflinePoint", "render_roofline",
                  "roofline_point", "suite_roofline"),
    ".experiment": ("DEFAULT_ITERATIONS", "Experiment", "compare_workload",
                    "run_workload"),
    ".results": ("ModeComparison", "RunResult", "RunSet"),
    ".streaming": ("StreamedResult", "execute_program_streamed",
                   "slice_descriptor"),
    ".stats": ("SignificanceResult", "Summary", "coefficient_of_variation",
               "confidence_interval_95", "geomean", "improvement_pct",
               "mean", "normalize_to", "percentile", "significantly_faster",
               "speedup", "std"),
})

__all__ = [
    "ALL_MODES", "BatchResult", "DEFAULT_ITERATIONS", "DiscussionSummary",
    "Experiment", "ModeComparison", "Recommendation", "RunResult", "RunSet",
    "ShareSummary", "Summary", "TransferMode", "check_carveout",
    "check_input_size", "check_launch_geometry", "coefficient_of_variation",
    "compare_workload", "confidence_interval_95", "execute_program",
    "geomean", "improvement_pct", "interjob_speedup", "mean",
    "normalize_to", "percentile", "recommend_mode", "run_job_batch",
    "run_workload", "section6_shares", "speedup", "std",
    "MultiGpuResult", "SignificanceResult", "managed_capacity_ratio",
    "run_multi_gpu", "scaling_study", "shard_program",
    "significantly_faster", "Bottleneck", "RooflinePoint",
    "render_roofline", "roofline_point", "suite_roofline",
    "StreamedResult", "execute_program_streamed", "slice_descriptor",
]
