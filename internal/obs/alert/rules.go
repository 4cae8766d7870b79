package alert

// DefaultRules is the built-in rule set covering serving health and clock
// health. The rules are written to stay silent on an idle server — threshold and
// ratio rules treat "no data" as healthy (absence is its own kind), and
// ratio rules carry a MinDen traffic floor so a single failed request on
// an otherwise idle instance doesn't page anyone.
func DefaultRules() []Rule {
	return []Rule{
		// --- serving health ---
		{
			Name: "p99-latency", Severity: SevWarn, Kind: KindThreshold,
			Metric: "http_request_seconds_p99{*}", Func: "max", Agg: "max", Op: ">", Value: 2,
			WindowSeconds: 120, ForSeconds: 15, KeepSeconds: 60,
			Detail: "worst per-route interval p99 exceeded 2s",
		},
		{
			Name: "error-rate", Severity: SevPage, Kind: KindRatio,
			Num: []string{`http_requests_total{*code="5*`}, Den: []string{"http_requests_total{*}"},
			MinDen: 0.5, Op: ">", Value: 0.05,
			WindowSeconds: 120, ForSeconds: 15, KeepSeconds: 60,
			Detail: "more than 5% of requests returned 5xx",
		},
		{
			Name: "cache-hit-collapse", Severity: SevInfo, Kind: KindRatio,
			Num: []string{"cache_hits_total{*}"}, Den: []string{"cache_hits_total{*}", "cache_misses_total{*}"},
			MinDen: 1, Op: "<", Value: 0.1,
			WindowSeconds: 300, ForSeconds: 30, KeepSeconds: 60,
			Detail: "response-cache hit rate fell below 10% under real traffic",
		},
		{
			Name: "job-queue-depth", Severity: SevWarn, Kind: KindThreshold,
			Metric: "jobs_queued", Func: "min", Op: ">=", Value: 8,
			WindowSeconds: 60, ForSeconds: 30, KeepSeconds: 30,
			Detail: "the async job queue stayed at least 8 deep for 30s",
		},
		// --- clock health ---
		{
			Name: "clock-alert-burst", Severity: SevWarn, Kind: KindThreshold,
			Metric: "clock_alerts_total{*}", Func: "rate", Agg: "sum", Op: ">", Value: 1,
			WindowSeconds: 60, ForSeconds: 0, KeepSeconds: 30,
			Detail: "simulation clock-health alerts (phase residency, separation) arriving >1/s",
		},
	}
}
