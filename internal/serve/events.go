package serve

import (
	"encoding/json"
	"fmt"
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

// subQueueLen is the per-subscriber bounded queue depth. A subscriber that
// falls further behind loses its oldest queued events (drop-oldest), then
// recovers them from the ring on the handler side — Publish itself never
// waits and never disconnects anyone.
const subQueueLen = 256

// subscriber is one SSE consumer's delivery state.
type subscriber struct {
	mu sync.Mutex // serializes push vs close; the reader side needs no lock
	ch chan Event
	// after is the sequence already covered by the subscriber's replay at
	// registration; pushes at or below it are duplicates and skipped.
	after   int64
	closed  bool
	dropped atomic.Int64 // events evicted from this queue
}

// push enqueues ev without ever blocking: when the bounded queue is full the
// oldest queued event is evicted (counted in dropped) to make room. The
// handler detects the resulting gap by sequence number and backfills from
// the ring.
func (s *subscriber) push(ev Event, b *eventBus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || ev.Seq <= s.after {
		return
	}
	for {
		select {
		case s.ch <- ev:
			return
		default:
		}
		select {
		case <-s.ch:
			s.dropped.Add(1)
			// Throttled black-box evidence: one event per 1024 drops keeps a
			// melting-down subscriber from flooding the flight ring.
			if n := b.dropped.Add(1); n&1023 == 1 {
				b.flight.Record("sse", obs.SevWarn, "subscriber dropping events",
					obs.KI("droppedTotal", n), obs.KI("seq", ev.Seq))
			}
		default:
			// A concurrent reader drained the queue between our two selects;
			// retry the send.
		}
	}
}

// eventBus fans scheduler events out to SSE subscribers. A small publish
// mutex serializes the ring store (which issues the sequence) and subscribe
// cuts; fanout happens outside it into per-subscriber bounded queues that
// drop-oldest rather than backpressure. The ring lets late or lossy
// subscribers replay recent history.
type eventBus struct {
	ring *obs.Ring[Event] // an event's Seq is its ring sequence

	pubMu sync.Mutex // serializes ring writes + subscribe cuts

	subsMu  sync.RWMutex
	subs    map[int]*subscriber
	nextSub int

	dropped atomic.Int64 // total events evicted across all subscriber queues

	flight *obs.FlightRecorder // black-box evidence for drop storms
}

func newEventBus(size int, flight *obs.FlightRecorder) *eventBus {
	return &eventBus{
		ring:   obs.NewRing[Event](size),
		subs:   make(map[int]*subscriber),
		flight: flight,
	}
}

// publish records the event in the ring, which assigns its sequence, and
// delivers it to every subscriber's queue. It never blocks on a slow
// subscriber: queue overflow evicts that subscriber's oldest event instead.
func (b *eventBus) publish(ev Event) {
	b.pubMu.Lock()
	ev.Seq = b.ring.Put(ev)
	b.pubMu.Unlock()

	b.subsMu.RLock()
	for _, s := range b.subs {
		s.push(ev, b)
	}
	b.subsMu.RUnlock()
}

// subscribe registers a new subscriber and returns its id, live channel and
// the replay of ring events with Seq > after (in order). The replay cut is
// taken under the publish mutex, so an event is delivered either in the
// replay or via the channel — never both, never neither.
func (b *eventBus) subscribe(after int64) (int, chan Event, []Event) {
	s := &subscriber{ch: make(chan Event, subQueueLen)}
	b.pubMu.Lock()
	s.after = b.ring.Head()
	replay, _ := b.window(after+1, s.after)
	b.subsMu.Lock()
	id := b.nextSub
	b.nextSub++
	b.subs[id] = s
	b.subsMu.Unlock()
	b.pubMu.Unlock()
	return id, s.ch, replay
}

// unsubscribe removes a subscriber and closes its channel.
func (b *eventBus) unsubscribe(id int) {
	b.subsMu.Lock()
	s, ok := b.subs[id]
	if ok {
		delete(b.subs, id)
	}
	b.subsMu.Unlock()
	if !ok {
		return
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
	s.mu.Unlock()
}

// window returns the ring events with lo <= Seq <= hi that are still
// resident, plus the count that have been overwritten (lost for good).
func (b *eventBus) window(lo, hi int64) ([]Event, int64) {
	return b.ring.Range(lo, hi, func(seq int64, ev *Event) bool {
		ev.Seq = seq
		return true
	})
}

// droppedTotal reports events evicted from subscriber queues since start.
func (b *eventBus) droppedTotal() int64 { return b.dropped.Load() }

// numSubscribers reports currently registered subscribers.
func (b *eventBus) numSubscribers() int {
	b.subsMu.RLock()
	n := len(b.subs)
	b.subsMu.RUnlock()
	return n
}

// handleEvents streams the decision log as Server-Sent Events. `?since=N`
// or a Last-Event-ID header resumes after sequence N; a cursor that is not
// a non-negative integer is answered 400. The handler owns gap
// repair: when its bounded queue dropped events (or racing publishers
// delivered out of order), it backfills the missing sequence range from the
// ring, so the emitted stream is strictly ordered and exactly-once per
// sequence number; only events already overwritten in the ring are truly
// lost, and those are announced with a ": dropped N events" comment.
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
	id, ch, replay := d.bus.subscribe(after)
	defer d.bus.unsubscribe(id)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	next := after + 1
	for _, ev := range replay {
		if err := writeSSE(w, ev); err != nil {
			return
		}
		next = ev.Seq + 1
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if ev.Seq < next { // duplicate of an already-emitted sequence
				continue
			}
			if ev.Seq > next { // queue dropped events; repair from the ring
				fill, missing := d.bus.window(next, ev.Seq-1)
				if missing > 0 {
					if _, err := fmt.Fprintf(w, ": dropped %d events\n\n", missing); err != nil {
						return
					}
				}
				for _, f := range fill {
					if err := writeSSE(w, f); err != nil {
						return
					}
				}
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			next = ev.Seq + 1
			flusher.Flush()
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
