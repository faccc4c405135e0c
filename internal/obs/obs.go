// Package obs is the scheduler's decision-tracing and explainability layer:
// nestable spans over the fit → allocate → place → deploy pipeline, an audit
// log of every §4.1 marginal-gain grant and §4.2 placement, and log-bucketed
// latency histograms. It is zero-dependency (standard library only) so the
// core kernels can carry optional obs hooks without import cycles, and it is
// built to cost nothing when off: every entry point is nil-receiver safe, a
// non-nil Tracer/AuditLog can be gated with SetEnabled, and the disabled
// path performs no allocation (CI-guarded by alloc_guard_test.go).
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed region of scheduler work. Start and Dur are nanoseconds
// on the tracer's monotonic clock (Start is measured from the tracer's
// creation), so spans order and nest exactly as they executed.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 = root span
	Name   string `json:"name"`
	Job    int    `json:"job,omitempty"` // -1/0 when not job-scoped
	Start  int64  `json:"startNs"`
	Dur    int64  `json:"durNs"` // -1 while the span is open
	Detail string `json:"detail,omitempty"`
}

// SpanRef identifies an open span returned by Begin. The zero-cost disabled
// path returns NoSpan, which End ignores.
type SpanRef int64

// NoSpan is the ref returned when tracing is off; safe to End.
const NoSpan SpanRef = -1

// Tracer records spans into a Ring. Begin/End are intended for one
// goroutine at a time (the scheduling loop); mu guards the nesting stack so
// Spans/Reset can run concurrently from an HTTP handler. A nil *Tracer is a
// valid, permanently-disabled tracer.
type Tracer struct {
	on    atomic.Bool
	epoch time.Time
	ring  *Ring[Span] // span IDs are ring sequences

	mu    sync.Mutex
	stack []int64 // open span IDs, innermost last
}

// DefaultSpanBuffer is the ring capacity NewTracer uses for size <= 0.
const DefaultSpanBuffer = 8192

// NewTracer returns an enabled tracer retaining the last `size` spans.
func NewTracer(size int) *Tracer {
	if size <= 0 {
		size = DefaultSpanBuffer
	}
	t := &Tracer{
		epoch: time.Now(),
		ring:  NewRing[Span](size),
		stack: make([]int64, 0, 16),
	}
	t.on.Store(true)
	return t
}

// SetEnabled toggles recording. Disabled Begin/End are branch-and-return:
// no lock, no clock read, no allocation.
func (t *Tracer) SetEnabled(v bool) {
	if t != nil {
		t.on.Store(v)
	}
}

// Enabled reports whether spans are being recorded. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// Begin opens a span nested under the innermost open span.
func (t *Tracer) Begin(name string) SpanRef { return t.BeginJob(name, 0) }

// BeginJob opens a job-scoped span.
func (t *Tracer) BeginJob(name string, job int) SpanRef {
	if t == nil || !t.on.Load() {
		return NoSpan
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := t.ring.Put(Span{Parent: parent, Name: name, Job: job, Start: now, Dur: -1})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return SpanRef(id)
}

// End closes the span, recording its duration. Ends of spans that have been
// overwritten in the ring (or NoSpan) are ignored. Closing an outer span
// implicitly discards any still-open inner spans, so a skipped End cannot
// corrupt the nesting stack.
func (t *Tracer) End(ref SpanRef) {
	if t == nil || ref <= 0 || !t.on.Load() {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	for n := len(t.stack); n > 0; n = len(t.stack) {
		top := t.stack[n-1]
		t.stack = t.stack[:n-1]
		if top == int64(ref) {
			break
		}
	}
	t.mu.Unlock()
	t.ring.Update(int64(ref), func(s *Span) { s.Dur = now - s.Start })
}

// Annotate attaches a free-form detail string to an open or closed span
// still in the ring.
func (t *Tracer) Annotate(ref SpanRef, detail string) {
	if t == nil || ref <= 0 || !t.on.Load() {
		return
	}
	t.ring.Update(int64(ref), func(s *Span) { s.Detail = detail })
}

// Spans returns a snapshot of the completed spans still in the ring, oldest
// first. Open spans are excluded. Nil-safe.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out, _ := t.ring.Range(1, math.MaxInt64, func(id int64, s *Span) bool {
		s.ID = id
		return s.Dur >= 0
	})
	return out
}

// Len returns the number of spans ever begun. Nil-safe.
func (t *Tracer) Len() int64 {
	if t == nil {
		return 0
	}
	return t.ring.Head()
}

// Reset drops all recorded spans and open-span state, keeping the clock
// epoch so span timestamps remain monotone across resets.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring.Reset()
	t.stack = t.stack[:0]
}
