package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"optimus/internal/core"
	"optimus/internal/obs"
)

// EventType enumerates the scheduler decisions streamed on /v1/events.
type EventType string

const (
	EventSubmitted EventType = "submitted" // job admitted into the registry
	EventPlaced    EventType = "placed"    // first deployment of a job
	EventScaled    EventType = "scaled"    // running job's (PS, workers) changed
	EventUnplaced  EventType = "unplaced"  // running job lost its deployment
	EventCompleted EventType = "completed" // job converged
	EventCancelled EventType = "cancelled" // owner cancelled the job
	EventFault     EventType = "fault"     // injected degradation (straggler)
	EventRecovered EventType = "recovered" // fault repaired (§5.2 replacement)
	// EventRescheduled fires once per scheduled round, reporting how many
	// previously-running tasks the round moved to another node (§5.4
	// checkpoint-restarts), e.g. "migrated=6".
	EventRescheduled EventType = "rescheduled"
)

// Event is one scheduler decision. Seq is a strictly increasing stream
// position usable as an SSE Last-Event-ID for resumption.
type Event struct {
	Seq     int64            `json:"seq"`
	Wall    time.Time        `json:"wall"`
	SimTime float64          `json:"simTime"`
	Type    EventType        `json:"type"`
	Job     int              `json:"job,omitempty"`
	Alloc   *core.Allocation `json:"alloc,omitempty"`
	Nodes   []string         `json:"nodes,omitempty"`
	Detail  string           `json:"detail,omitempty"`
}

// eventBus is the one store of the /v1/events stream: a ring of the newest
// eventBuffer decisions that every SSE handler tails by sequence. Nothing is
// copied per subscriber, so a slow reader costs publish nothing; a reader
// that falls more than the ring's capacity behind loses the overwritten
// events and is told so.
type eventBus struct {
	ring *obs.Ring[Event] // an event's Seq is its ring sequence

	mu   sync.Mutex
	wake chan struct{} // closed by the next publish; nil while no handler waits

	subscribers atomic.Int64 // connected /v1/events handlers
	dropped     atomic.Int64 // events overwritten before a subscriber read them

	flight *obs.FlightRecorder // black-box evidence for drop storms
}

func newEventBus(size int, flight *obs.FlightRecorder) *eventBus {
	return &eventBus{ring: obs.NewRing[Event](size), flight: flight}
}

// publish records the event in the ring, which assigns its sequence, and
// wakes the handlers waiting for it. It never waits on a subscriber, and
// with none waiting it allocates nothing.
func (b *eventBus) publish(ev Event) {
	b.ring.Put(ev)
	b.mu.Lock()
	if b.wake != nil {
		close(b.wake)
		b.wake = nil
	}
	b.mu.Unlock()
}

// waiter returns a channel the next publish closes. A handler takes it
// before it reads the ring, so a publish that lands after the read still
// wakes it.
func (b *eventBus) waiter() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.wake == nil {
		b.wake = make(chan struct{})
	}
	return b.wake
}

// window returns the ring events with lo <= Seq <= hi that are still
// resident, plus the count that have been overwritten (lost for good).
func (b *eventBus) window(lo, hi int64) ([]Event, int64) {
	return b.ring.Range(lo, hi, func(seq int64, ev *Event) bool {
		ev.Seq = seq
		return true
	})
}

// noteDropped counts events a subscriber missed. Throttled black-box
// evidence: one flight record per 1024 drops keeps a melting-down
// subscriber from flooding the flight ring.
func (b *eventBus) noteDropped(n, seq int64) {
	total := b.dropped.Add(n)
	if (total-n)>>10 != total>>10 || total == n {
		b.flight.Record("sse", obs.SevWarn, "subscriber dropping events",
			obs.KI("droppedTotal", total), obs.KI("seq", seq))
	}
}

// handleEvents streams the decision log as Server-Sent Events. `?since=N`
// or a Last-Event-ID header resumes after sequence N; a cursor that is not
// a non-negative integer is answered 400. The handler tails the bus ring:
// it writes every event after its cursor, then waits for the next publish.
// The stream is strictly ordered and exactly-once per sequence; events the
// ring overwrote before the handler read them are announced with a
// ": dropped N events" comment. A cursor above the ring's head was issued
// by an earlier process, whose sequences this one restarted at 1, so the
// stream says so and starts from the oldest resident event.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	cursor := r.URL.Query().Get("since")
	if cursor == "" {
		cursor = r.Header.Get("Last-Event-ID")
	}
	var after int64
	if cursor != "" {
		var err error
		if after, err = strconv.ParseInt(cursor, 10, 64); err != nil || after < 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("serve: bad event cursor %q (want a sequence number >= 0)", cursor))
			return
		}
	}
	d.bus.subscribers.Add(1)
	defer d.bus.subscribers.Add(-1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// History older than the ring is no loss to a reader with no cursor of
	// this process.
	fresh := after == 0
	if after > d.bus.ring.Head() {
		if _, err := fmt.Fprint(w, ": stream restarted at 1\n\n"); err != nil {
			return
		}
		after, fresh = 0, true
	}
	next := after + 1
	for {
		wake := d.bus.waiter()
		evs, lost := d.bus.window(next, math.MaxInt64)
		if lost > 0 && !fresh {
			d.bus.noteDropped(lost, next)
			if _, err := fmt.Fprintf(w, ": dropped %d events\n\n", lost); err != nil {
				return
			}
		}
		fresh = false
		for _, ev := range evs {
			if err := writeSSE(w, ev); err != nil {
				return
			}
		}
		next += lost + int64(len(evs))
		flusher.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}

// writeSSE renders one event in text/event-stream framing.
func writeSSE(w http.ResponseWriter, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}
