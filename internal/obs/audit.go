package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// GrantKind labels one §4.1 allocation action.
type GrantKind string

const (
	// GrantSeed is the phase-1 starvation-avoidance grant of one worker and
	// one parameter server.
	GrantSeed GrantKind = "seed"
	// GrantWorker / GrantPS are phase-2 marginal-gain grants of one task.
	GrantWorker GrantKind = "worker"
	GrantPS     GrantKind = "ps"
)

// GrantEvent records one step of the §4.1 marginal-gain allocator: which job
// won the grant, the (priority-scaled) normalized gain it bid, the dominant
// resource share of the granted task, and the allocation the job holds after
// the grant. HeapDepth is how many jobs were still bidding when this grant
// was taken — the competition the winner beat.
type GrantEvent struct {
	Seq   int64   `json:"seq"`
	Round int     `json:"round"`
	Time  float64 `json:"time"` // scheduler clock, seconds

	Job           int       `json:"job"`
	Kind          GrantKind `json:"kind"`
	Gain          float64   `json:"gain,omitempty"`
	DominantShare float64   `json:"dominantShare"`
	Priority      float64   `json:"priority"`
	HeapDepth     int       `json:"heapDepth,omitempty"`
	PS            int       `json:"ps"`
	Workers       int       `json:"workers"`
}

// PlaceEvent records one job's §4.2 placement: the servers its tasks landed
// on, how evenly they spread (Theorem 1 wants max−min task counts per used
// server of 0), and whether the exact even-split construction succeeded or
// the greedy fallback ran.
type PlaceEvent struct {
	Seq   int64   `json:"seq"`
	Round int     `json:"round"`
	Time  float64 `json:"time"`

	Job     int      `json:"job"`
	PS      int      `json:"ps"`
	Workers int      `json:"workers"`
	Servers int      `json:"servers"`
	Spread  int      `json:"spread"` // max−min tasks per used server
	Even    bool     `json:"even"`   // exact Theorem-1 even split
	Nodes   []string `json:"nodes,omitempty"`
}

// AuditLog retains the scheduler's recent decisions in two Rings, one for
// allocation grants and one for placements; an event's Seq is its ring
// sequence. It is safe for concurrent use: the scheduling loop appends while
// HTTP handlers query per-job history. A nil *AuditLog is a valid,
// permanently-disabled log.
type AuditLog struct {
	// enabled gates the hot-path hooks; checked without taking mu.
	enabled atomic.Bool

	grants *Ring[GrantEvent]
	places *Ring[PlaceEvent]

	mu      sync.Mutex // guards the stamp
	round   int
	simTime float64
}

// DefaultAuditBuffer is the per-ring capacity NewAuditLog uses for size <= 0.
const DefaultAuditBuffer = 16384

// NewAuditLog returns an enabled log retaining the last `size` grant events
// and the last `size` placement events.
func NewAuditLog(size int) *AuditLog {
	if size <= 0 {
		size = DefaultAuditBuffer
	}
	a := &AuditLog{
		grants: NewRing[GrantEvent](size),
		places: NewRing[PlaceEvent](size),
	}
	a.enabled.Store(true)
	return a
}

// SetEnabled toggles recording. While disabled, Grant/Place are
// branch-and-return: no lock, no allocation.
func (a *AuditLog) SetEnabled(v bool) {
	if a != nil {
		a.enabled.Store(v)
	}
}

// Enabled reports whether the log is recording. Nil-safe; the scheduler
// kernels call this before building an event so the disabled path does no
// work at all.
func (a *AuditLog) Enabled() bool { return a != nil && a.enabled.Load() }

// Stamp sets the round number and scheduler-clock time attached to events
// recorded until the next Stamp. The integration layer (sim.Run, the
// optimusd event loop) stamps once per interval so the kernels stay
// time-agnostic.
func (a *AuditLog) Stamp(round int, simTime float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.round, a.simTime = round, simTime
	a.mu.Unlock()
}

func (a *AuditLog) stamp() (int, float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.round, a.simTime
}

// Grant appends one allocation grant, filling Round/Time.
func (a *AuditLog) Grant(ev GrantEvent) {
	if !a.Enabled() {
		return
	}
	ev.Round, ev.Time = a.stamp()
	a.grants.Put(ev)
}

// Place appends one placement record, filling Round/Time.
func (a *AuditLog) Place(ev PlaceEvent) {
	if !a.Enabled() {
		return
	}
	ev.Round, ev.Time = a.stamp()
	a.places.Put(ev)
}

// Reset drops all recorded events and the current stamp. Nil-safe.
func (a *AuditLog) Reset() {
	if a == nil {
		return
	}
	a.grants.Reset()
	a.places.Reset()
	a.Stamp(0, 0)
}

// Grants returns the retained grant events oldest-first, filtered to one job
// when job >= 0. Nil-safe.
func (a *AuditLog) Grants(job int) []GrantEvent {
	if a == nil {
		return nil
	}
	out, _ := a.grants.Range(1, math.MaxInt64, func(seq int64, ev *GrantEvent) bool {
		ev.Seq = seq
		return job < 0 || ev.Job == job
	})
	return out
}

// Places returns the retained placement events oldest-first, filtered to one
// job when job >= 0. Nil-safe.
func (a *AuditLog) Places(job int) []PlaceEvent {
	if a == nil {
		return nil
	}
	out, _ := a.places.Range(1, math.MaxInt64, func(seq int64, ev *PlaceEvent) bool {
		ev.Seq = seq
		return job < 0 || ev.Job == job
	})
	return out
}
