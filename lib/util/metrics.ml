external now : unit -> float = "dpm_metrics_monotonic_s"
