package obs

import "math"

// Decision is one job's scheduling decision in one round: the §4.1 inputs
// (effective priority, remaining work Q, and the predicted speed at the
// placed shape), the (PS, workers) granted, and the §4.2 placement after any
// shrink retry — the servers used, how evenly the tasks spread over them
// (Theorem 1 wants max−min task counts per used server of 0), and whether
// the exact even-split construction produced it. An unplaced job has
// PS = Workers = 0 and no nodes.
type Decision struct {
	Seq   int64   `json:"seq"`
	Round int     `json:"round"`
	Time  float64 `json:"time"` // scheduler clock, seconds
	Job   int     `json:"job"`

	Priority  float64 `json:"priority"`
	Remaining float64 `json:"remaining"` // Q, in the view's work units
	Speed     float64 `json:"speed"`     // f(PS, Workers), work units/s

	GrantPS      int `json:"grantPS"`
	GrantWorkers int `json:"grantWorkers"`

	PS      int      `json:"ps"`
	Workers int      `json:"workers"`
	Servers int      `json:"servers"`
	Spread  int      `json:"spread"` // max−min tasks per used server
	Even    bool     `json:"even"`   // exact Theorem-1 even split
	Nodes   []string `json:"nodes,omitempty"`
}

// AuditLog retains the scheduler's recent decisions, one per job per round,
// in a Ring; a decision's Seq is its ring sequence. Stamp and Record run on
// the scheduling round's goroutine; readers touch only the ring, so HTTP
// handlers may query per-job history while the round records. A nil
// *AuditLog records nothing.
type AuditLog struct {
	ring    *Ring[Decision]
	round   int
	simTime float64
}

// DefaultAuditBuffer is the ring capacity NewAuditLog uses for size <= 0.
const DefaultAuditBuffer = 16384

// NewAuditLog returns a log retaining the last `size` decisions.
func NewAuditLog(size int) *AuditLog {
	if size <= 0 {
		size = DefaultAuditBuffer
	}
	return &AuditLog{ring: NewRing[Decision](size)}
}

// Stamp sets the round number and scheduler-clock time attached to decisions
// recorded until the next Stamp. The driver (sim.Run, the optimusd event
// loop) stamps once per round. Nil-safe.
func (a *AuditLog) Stamp(round int, simTime float64) {
	if a != nil {
		a.round, a.simTime = round, simTime
	}
}

// Record appends one decision, filling Round and Time from the stamp.
// Nil-safe.
func (a *AuditLog) Record(d Decision) {
	if a == nil {
		return
	}
	d.Round, d.Time = a.round, a.simTime
	a.ring.Put(d)
}

// Decisions returns the retained decisions oldest-first, filtered to one job
// when job >= 0. Nil-safe.
func (a *AuditLog) Decisions(job int) []Decision {
	if a == nil {
		return nil
	}
	out, _ := a.ring.Range(1, math.MaxInt64, func(seq int64, d *Decision) bool {
		d.Seq = seq
		return job < 0 || d.Job == job
	})
	return out
}
