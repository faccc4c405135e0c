package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder is the daemon's always-on black box: a fixed ring of
// seq-stamped structured events fed from every control-plane hot spot (engine
// rounds, WAL appends and fsyncs, HA lease transitions, SSE drops). Unlike
// the Tracer it is meant to run in production builds at all times, so the
// record path is built like AtomicHistogram's: a single atomic sequence claim
// plus one per-slot mutex held for a struct copy — no global lock, no
// allocation (CI-guarded by alloc_guard_test.go). When the process
// fail-stops, the ring is what the debug bundle dumps: the last few thousand
// things the scheduler believed and did.
//
// A nil *FlightRecorder is a valid, permanently-disabled recorder, and a
// non-nil one can be gated with SetEnabled; both disabled paths are a branch
// and a return.
type FlightRecorder struct {
	on    atomic.Bool
	next  atomic.Uint64 // last sequence issued (1-based)
	slots []flightSlot
	mask  uint64 // len(slots) - 1; capacity is a power of two
}

// flightSlot guards one ring entry. The per-slot mutex (rather than a global
// one) keeps concurrent writers on different slots contention-free; it is
// held only for a struct copy, a few nanoseconds.
type flightSlot struct {
	mu sync.Mutex
	ev FlightEvent
}

// DefaultFlightBuffer is the ring capacity NewFlightRecorder uses for
// size <= 0: enough for several minutes of steady-state control-plane events.
const DefaultFlightBuffer = 4096

// NewFlightRecorder returns an enabled recorder retaining the last `size`
// events (rounded up to a power of two).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightBuffer
	}
	cap := 1
	for cap < size {
		cap <<= 1
	}
	f := &FlightRecorder{slots: make([]flightSlot, cap), mask: uint64(cap - 1)}
	f.on.Store(true)
	return f
}

// SetEnabled toggles recording. Nil-safe.
func (f *FlightRecorder) SetEnabled(v bool) {
	if f != nil {
		f.on.Store(v)
	}
}

// Enabled reports whether events are being recorded. Nil-safe.
func (f *FlightRecorder) Enabled() bool { return f != nil && f.on.Load() }

// Severity levels a flight event or log line.
type Severity uint8

const (
	SevDebug Severity = iota
	SevInfo
	SevWarn
	SevError
)

// String implements fmt.Stringer ("debug", "info", "warn", "error").
func (s Severity) String() string {
	switch s {
	case SevDebug:
		return "debug"
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	default:
		return "sev(" + strconv.Itoa(int(s)) + ")"
	}
}

// MarshalJSON renders the severity as its string form.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// ParseSeverity parses the string form ("debug", "info", "warn", "error"),
// for -log-level flags.
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "debug":
		return SevDebug, nil
	case "info":
		return SevInfo, nil
	case "warn":
		return SevWarn, nil
	case "error":
		return SevError, nil
	}
	return SevInfo, fmt.Errorf("obs: bad severity %q (want debug, info, warn or error)", s)
}

// UnmarshalJSON accepts the string form (for bundle round-trips).
func (s *Severity) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"debug"`:
		*s = SevDebug
	case `"info"`:
		*s = SevInfo
	case `"warn"`:
		*s = SevWarn
	case `"error"`:
		*s = SevError
	default:
		return fmt.Errorf("obs: bad severity %s", b)
	}
	return nil
}

// KV value kinds.
const (
	kvString uint8 = iota
	kvInt
	kvUint
	kvFloat
	kvBool
)

// KV is one key/value attribute of a flight event. It is a value type (no
// interface boxing) so passing attributes to Record never allocates.
type KV struct {
	K    string
	s    string
	i    int64
	f    float64
	kind uint8
}

// KS builds a string attribute.
func KS(k, v string) KV { return KV{K: k, s: v, kind: kvString} }

// KI builds an int attribute.
func KI(k string, v int64) KV { return KV{K: k, i: v, kind: kvInt} }

// KU builds a uint attribute.
func KU(k string, v uint64) KV { return KV{K: k, i: int64(v), kind: kvUint} }

// KF builds a float attribute.
func KF(k string, v float64) KV { return KV{K: k, f: v, kind: kvFloat} }

// KB builds a bool attribute.
func KB(k string, v bool) KV {
	var i int64
	if v {
		i = 1
	}
	return KV{K: k, i: i, kind: kvBool}
}

// Value returns the attribute's value boxed as any (read side only; the
// record path never calls it).
func (kv KV) Value() any {
	switch kv.kind {
	case kvInt:
		return kv.i
	case kvUint:
		return uint64(kv.i)
	case kvFloat:
		return kv.f
	case kvBool:
		return kv.i != 0
	default:
		return kv.s
	}
}

// appendText renders "k=v" without allocation beyond the destination growth.
func (kv KV) appendText(dst []byte) []byte {
	dst = append(dst, kv.K...)
	dst = append(dst, '=')
	switch kv.kind {
	case kvInt:
		dst = strconv.AppendInt(dst, kv.i, 10)
	case kvUint:
		dst = strconv.AppendUint(dst, uint64(kv.i), 10)
	case kvFloat:
		dst = strconv.AppendFloat(dst, kv.f, 'g', -1, 64)
	case kvBool:
		dst = strconv.AppendBool(dst, kv.i != 0)
	default:
		dst = append(dst, kv.s...)
	}
	return dst
}

// maxFlightKV is how many attributes one event retains; extras are dropped
// (the fixed array keeps the record path allocation-free).
const maxFlightKV = 4

// FlightEvent is one recorded control-plane event.
type FlightEvent struct {
	Seq       uint64 // recorder-assigned, strictly increasing
	Wall      int64  // unix nanoseconds
	Component string // "engine", "wal", "ha", "sse", "log", ...
	Sev       Severity
	Msg       string
	KVs       [maxFlightKV]KV
	NKV       uint8
}

// Attrs returns the event's attributes as a map (read side only).
func (e FlightEvent) Attrs() map[string]any {
	if e.NKV == 0 {
		return nil
	}
	m := make(map[string]any, e.NKV)
	for i := 0; i < int(e.NKV); i++ {
		m[e.KVs[i].K] = e.KVs[i].Value()
	}
	return m
}

// String renders "seq=12 2006-01-02T15:04:05.000Z error ha: lease lost k=v".
func (e FlightEvent) String() string {
	var b strings.Builder
	b.WriteString(time.Unix(0, e.Wall).UTC().Format("2006-01-02T15:04:05.000Z"))
	fmt.Fprintf(&b, " %-5s %s: %s", e.Sev, e.Component, e.Msg)
	for i := 0; i < int(e.NKV); i++ {
		b.WriteByte(' ')
		b.Write(e.KVs[i].appendText(nil))
	}
	return b.String()
}

// flightEventJSON is the wire form of one event; KVs flatten into a map.
type flightEventJSON struct {
	Seq       uint64         `json:"seq"`
	Wall      time.Time      `json:"wall"`
	Component string         `json:"component"`
	Sev       Severity       `json:"sev"`
	Msg       string         `json:"msg"`
	KV        map[string]any `json:"kv,omitempty"`
}

// MarshalJSON implements json.Marshaler (dump/bundle path only).
func (e FlightEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(flightEventJSON{
		Seq: e.Seq, Wall: time.Unix(0, e.Wall).UTC(),
		Component: e.Component, Sev: e.Sev, Msg: e.Msg, KV: e.Attrs(),
	})
}

// UnmarshalJSON implements json.Unmarshaler so bundles round-trip through
// optimus-trace. Attribute kinds collapse to string/float/bool (JSON's).
func (e *FlightEvent) UnmarshalJSON(b []byte) error {
	var w flightEventJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*e = FlightEvent{Seq: w.Seq, Wall: w.Wall.UnixNano(),
		Component: w.Component, Sev: w.Sev, Msg: w.Msg}
	for k, v := range w.KV {
		if int(e.NKV) >= maxFlightKV {
			break
		}
		switch t := v.(type) {
		case string:
			e.KVs[e.NKV] = KS(k, t)
		case float64:
			e.KVs[e.NKV] = KF(k, t)
		case bool:
			e.KVs[e.NKV] = KB(k, t)
		default:
			e.KVs[e.NKV] = KS(k, fmt.Sprint(t))
		}
		e.NKV++
	}
	return nil
}

// Record stamps and stores one event. The path is one atomic add, one
// uncontended mutex, one struct copy: no allocation, no global serialization.
// At most maxFlightKV attributes are retained. Nil-safe; a disabled recorder
// returns after a single atomic load.
func (f *FlightRecorder) Record(component string, sev Severity, msg string, kvs ...KV) {
	if f == nil || !f.on.Load() {
		return
	}
	seq := f.next.Add(1)
	wall := time.Now().UnixNano()
	n := len(kvs)
	if n > maxFlightKV {
		n = maxFlightKV
	}
	slot := &f.slots[(seq-1)&f.mask]
	slot.mu.Lock()
	slot.ev.Seq = seq
	slot.ev.Wall = wall
	slot.ev.Component = component
	slot.ev.Sev = sev
	slot.ev.Msg = msg
	for i := 0; i < n; i++ {
		slot.ev.KVs[i] = kvs[i]
	}
	for i := n; i < maxFlightKV; i++ {
		slot.ev.KVs[i] = KV{}
	}
	slot.ev.NKV = uint8(n)
	slot.mu.Unlock()
}

// Len returns the number of events ever recorded. Nil-safe.
func (f *FlightRecorder) Len() uint64 {
	if f == nil {
		return 0
	}
	return f.next.Load()
}

// Snapshot copies the resident events out of the ring, oldest first. An event
// being overwritten concurrently is skipped (its slot holds a different
// sequence by the time it is read). Nil-safe.
func (f *FlightRecorder) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	hi := f.next.Load()
	lo := uint64(1)
	if n := uint64(len(f.slots)); hi > n {
		lo = hi - n + 1
	}
	if hi == 0 {
		return nil
	}
	out := make([]FlightEvent, 0, hi-lo+1)
	for seq := lo; seq <= hi; seq++ {
		slot := &f.slots[(seq-1)&f.mask]
		slot.mu.Lock()
		ev := slot.ev
		slot.mu.Unlock()
		if ev.Seq == seq {
			out = append(out, ev)
		}
	}
	return out
}

// Tail returns the newest n resident events, oldest first.
func (f *FlightRecorder) Tail(n int) []FlightEvent {
	all := f.Snapshot()
	if n > 0 && len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}
