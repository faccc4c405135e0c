package serve

// SLO burn-rate accounting against the Config.SLO* targets. A burn value is
// the observed bad-event fraction divided by its budget: 1.0 means the
// daemon is consuming its error budget exactly as fast as the SLO allows,
// above 1 it is burning faster (alerting territory), 0 means no budget
// spent. Exposed as optimus_slo_* gauges on /metrics and as the "slo" block
// of GET /v1/cluster.

// SLOStatus is the daemon's current SLO attainment.
type SLOStatus struct {
	// Interval SLO: fraction of scheduling rounds that outlasted the tick.
	OverrunTarget float64 `json:"overrunTarget"`
	OverrunRate   float64 `json:"overrunRate"`
	OverrunBurn   float64 `json:"overrunBurn"`
	// API SLO: request latency p99 against the per-request target, plus the
	// slow-request and 5xx fractions against the shared error budget.
	APILatencyTargetSeconds float64 `json:"apiLatencyTargetSeconds"`
	APIP99Seconds           float64 `json:"apiP99Seconds"`
	APISlowRate             float64 `json:"apiSlowRate"`
	APISlowBurn             float64 `json:"apiSlowBurn"`
	APIErrorRate            float64 `json:"apiErrorRate"`
	APIErrorBurn            float64 `json:"apiErrorBurn"`
}

// SLO computes current attainment. Lock-free: counters and the latency
// histogram are atomics.
func (d *Daemon) SLO() SLOStatus {
	s := SLOStatus{
		OverrunTarget:           d.cfg.SLOOverrunTarget,
		APILatencyTargetSeconds: d.cfg.SLOAPILatencyTarget.Seconds(),
	}
	if rounds := d.roundsN.Load(); rounds > 0 {
		s.OverrunRate = float64(d.overruns.Load()) / float64(rounds)
		s.OverrunBurn = s.OverrunRate / d.cfg.SLOOverrunTarget
	}
	if n := d.apiHist.Count(); n > 0 {
		s.APIP99Seconds = d.apiHist.Quantile(0.99)
		s.APISlowRate = float64(d.apiSlow.Load()) / float64(n)
		s.APISlowBurn = s.APISlowRate / d.cfg.SLOAPIErrorBudget
		s.APIErrorRate = float64(d.apiErrs.Load()) / float64(n)
		s.APIErrorBurn = s.APIErrorRate / d.cfg.SLOAPIErrorBudget
	}
	return s
}
