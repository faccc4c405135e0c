package obs

import "sync"

// Ring is the one fixed-capacity, sequence-numbered history buffer behind
// the Tracer, the AuditLog, the FlightRecorder and the daemon's SSE replay
// ring. The ring owns the sequence: Put issues 1, 2, 3, … and the value with
// sequence s lives in slot (s-1) mod capacity until capacity newer values
// overwrite it. Values carry no sequence of their own; readers stamp the
// sequence Range hands them into whatever field their wire format uses.
//
// One mutex guards everything. The writers are the scheduling loop, rare
// control-plane events and the SSE publisher (already serialized by its own
// mutex), so the lock is all but uncontended, and a value type is stored by
// copy with no allocation.
type Ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	head int64 // last sequence issued; 0 before the first Put
}

// NewRing returns a ring retaining the newest size values; size must be
// positive.
func NewRing[T any](size int) *Ring[T] { return &Ring[T]{buf: make([]T, size)} }

// Put stores v and returns the sequence it was issued.
func (r *Ring[T]) Put(v T) int64 {
	r.mu.Lock()
	r.head++
	seq := r.head
	r.buf[r.slot(seq)] = v
	r.mu.Unlock()
	return seq
}

// Update applies fn to the value with sequence seq, if it is still
// resident, and reports whether it was. fn runs under the ring's lock: it
// must only edit the value, never block or call back into the ring.
func (r *Ring[T]) Update(seq int64, fn func(*T)) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq < r.oldest() || seq > r.head {
		return false
	}
	fn(&r.buf[r.slot(seq)])
	return true
}

// Range copies out, oldest first, the resident values with lo <= seq <= hi
// (hi is clamped to Head). keep sees each copy with its sequence, so it can
// stamp the sequence in, and drops the copy by returning false; like
// Update's fn it runs under the ring's lock. lost counts the sequences in
// the window that were already overwritten: gone for good.
func (r *Ring[T]) Range(lo, hi int64, keep func(seq int64, v *T) bool) (out []T, lost int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	lo = max(lo, 1)
	hi = min(hi, r.head)
	if hi < lo {
		return nil, 0
	}
	if old := r.oldest(); lo < old {
		lost = min(old, hi+1) - lo
		lo = old
	}
	for seq := lo; seq <= hi; seq++ {
		out = append(out, r.buf[r.slot(seq)])
		if !keep(seq, &out[len(out)-1]) {
			out = out[:len(out)-1]
		}
	}
	return out, lost
}

// Head returns the last sequence issued (0 when empty): the number of values
// ever Put since the last Reset.
func (r *Ring[T]) Head() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// Reset drops every value and restarts the sequence at 1.
func (r *Ring[T]) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.buf)
	r.head = 0
}

func (r *Ring[T]) slot(seq int64) int { return int((seq - 1) % int64(len(r.buf))) }

// oldest is the lowest resident sequence (1 until the ring wraps).
func (r *Ring[T]) oldest() int64 { return max(1, r.head-int64(len(r.buf))+1) }
