package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/wal"
)

// observeCases and deployCases are the edge values of the binary layouts:
// signed zeros, NaN payloads, infinities, IDs at the ends of their range,
// zero counts, and empty and long node lists.
var (
	observeCases = []walObserve{
		{},
		{ID: 7, Progress: 1.25, PS: 2, W: 4, Speed: 0.5, K: 1.25, Loss: 0.75},
		{ID: math.MaxInt64, Progress: math.Copysign(0, -1), Speed: math.Inf(1), K: math.Inf(-1)},
		{ID: math.MinInt64, Progress: math.Float64frombits(0x7ff8_0000_dead_beef),
			Loss: math.Float64frombits(0xfff0_0000_0000_0001), PS: math.MaxUint32, W: 1},
		{ID: 1, Progress: math.SmallestNonzeroFloat64, Speed: math.MaxFloat64},
	}
	deployCases = []walDeploy{
		{ID: 1, State: StateWaiting},
		{ID: 2, State: StateRunning, PS: 1, W: 3, Nodes: []string{"node-0"}},
		{ID: math.MaxInt64, State: StateRunning, PS: math.MaxUint32, W: 0,
			Nodes: []string{"", "a", strings.Repeat("n", math.MaxUint16)}},
		{ID: 3, State: StateRunning, PS: 2, W: 2, Nodes: longNodeList(3000)},
	}
)

func longNodeList(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "node-" + strings.Repeat("x", i%40)
	}
	return out
}

func sameObserve(a, b walObserve) bool {
	return a.ID == b.ID && a.PS == b.PS && a.W == b.W &&
		math.Float64bits(a.Progress) == math.Float64bits(b.Progress) &&
		math.Float64bits(a.Speed) == math.Float64bits(b.Speed) &&
		math.Float64bits(a.K) == math.Float64bits(b.K) &&
		math.Float64bits(a.Loss) == math.Float64bits(b.Loss)
}

func sameDeploy(a, b walDeploy) bool {
	if a.ID != b.ID || a.State != b.State || a.PS != b.PS || a.W != b.W ||
		len(a.Nodes) != len(b.Nodes) || (a.Nodes == nil) != (b.Nodes == nil) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}

// TestWALBinaryRoundTrip checks encode → decode → encode for both layouts,
// comparing floats by Float64bits, and that observe has its fixed length.
func TestWALBinaryRoundTrip(t *testing.T) {
	for _, want := range observeCases {
		b := want.appendTo(nil)
		if len(b) != walObserveSize {
			t.Fatalf("observe %+v encodes to %d bytes, want %d", want, len(b), walObserveSize)
		}
		var got walObserve
		if err := got.decode(b); err != nil {
			t.Fatalf("observe %+v: %v", want, err)
		}
		if !sameObserve(got, want) || !bytes.Equal(got.appendTo(nil), b) {
			t.Fatalf("observe round trip: got %+v, want %+v", got, want)
		}
	}
	for _, want := range deployCases {
		b, err := want.appendTo(nil)
		if err != nil {
			t.Fatalf("deploy %d: %v", want.ID, err)
		}
		var got walDeploy
		if err := got.decode(b); err != nil {
			t.Fatalf("deploy %d: %v", want.ID, err)
		}
		again, _ := got.appendTo(nil)
		if !sameDeploy(got, want) || !bytes.Equal(again, b) {
			t.Fatalf("deploy %d round trip: got %d nodes, want %d", want.ID, len(got.Nodes), len(want.Nodes))
		}
	}
	for _, bad := range []walDeploy{
		{ID: 1, State: StateDone},
		{ID: 1, State: StateRunning, Nodes: make([]string, math.MaxUint16+1)},
		{ID: 1, State: StateRunning, Nodes: []string{strings.Repeat("n", math.MaxUint16+1)}},
	} {
		if _, err := bad.appendTo(nil); err == nil {
			t.Errorf("deploy in state %q with %d nodes encoded", bad.State, len(bad.Nodes))
		}
	}
}

// TestWALBinaryRejectsMalformed checks that a JSON-era observe or deploy
// payload is refused with its type named (by the replay applier and by
// WALDecodePayload alike), that ReplayWAL of a log holding one reports it
// under exactly one "wal replay:" prefix, and that truncated, padded or
// unknown-state binary payloads are refused too.
func TestWALBinaryRejectsMalformed(t *testing.T) {
	jsonEra := []wal.Record{
		{Seq: 1, Type: wal.TypeObserve, Payload: []byte(`{"id":1,"prog":0.5,"ps":1,"w":2,"speed":0.25}`)},
		// 49 bytes: the length of a binary observe.
		{Seq: 1, Type: wal.TypeObserve, Payload: []byte(`{"id":12,"prog":1.5,"ps":2,"w":3,"speed":0.25000}`)},
		{Seq: 1, Type: wal.TypeDeploy, Payload: []byte(`{"id":1,"state":"running","ps":1,"w":1,"nodes":["n0"]}`)},
		{Seq: 1, Type: wal.TypeDeploy, Payload: []byte(`{"id":1,"state":"waiting"}`)},
	}
	if len(jsonEra[1].Payload) != walObserveSize {
		t.Fatalf("fixture is %d bytes, want %d", len(jsonEra[1].Payload), walObserveSize)
	}
	for _, rec := range jsonEra {
		name := rec.Type.String()
		if _, err := WALDecodePayload(rec); err == nil || !strings.Contains(err.Error(), name+" payload is JSON") {
			t.Errorf("WALDecodePayload(%s %s): err %v", name, rec.Payload, err)
		}
		d := freshDaemon(t, 1)
		a := d.NewWALApplier()
		if err := a.Apply(rec); err == nil || !strings.Contains(err.Error(), name+" payload is JSON") {
			t.Errorf("Apply(%s %s): err %v", name, rec.Payload, err)
		}

		dir := t.TempDir()
		l, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(rec.Type, rec.Payload); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = freshDaemon(t, 1).ReplayWAL(dir)
		if want := "wal replay: record 1 (" + name + "): "; err == nil ||
			!strings.HasPrefix(err.Error(), want) || strings.Count(err.Error(), "wal replay:") != 1 {
			t.Errorf("ReplayWAL of a %s %s: err %v, want one %q prefix", name, rec.Payload, err, want)
		}
	}

	obs := observeCases[1].appendTo(nil)
	dep, _ := deployCases[1].appendTo(nil)
	badState := bytes.Clone(dep)
	badState[9] = 3
	for _, rec := range []wal.Record{
		{Type: wal.TypeObserve, Payload: nil},
		{Type: wal.TypeObserve, Payload: obs[:len(obs)-1]},
		{Type: wal.TypeObserve, Payload: append(bytes.Clone(obs), 0)},
		{Type: wal.TypeObserve, Payload: append([]byte{0xB2}, obs[1:]...)},
		{Type: wal.TypeDeploy, Payload: dep[:walDeployHead-1]},
		{Type: wal.TypeDeploy, Payload: dep[:len(dep)-1]},
		{Type: wal.TypeDeploy, Payload: append(bytes.Clone(dep), 0)},
		{Type: wal.TypeDeploy, Payload: badState},
	} {
		if _, err := WALDecodePayload(rec); err == nil || !strings.Contains(err.Error(), "malformed "+rec.Type.String()) {
			t.Errorf("%s payload % x: err %v", rec.Type, rec.Payload, err)
		}
	}

	// A submit record replays only what admission admits.
	for payload, want := range map[string]string{
		`{"id":1,"model":"resnet-50","mode":"async","th":0.9,"at":0}`:         "threshold must be in (0, 0.5]",
		`{"id":1,"model":"resnet-50","mode":"async","th":-1,"at":0}`:          "threshold must be in (0, 0.5]",
		`{"id":1,"model":"resnet-50","mode":"async","th":0.02,"ds":7,"at":0}`: "downscale must be in (0, 1]",
		`{"id":1,"model":"no-such","mode":"async","th":0.02,"at":0}`:          "unknown model",
		`{"id":1,"model":"resnet-50","mode":"batch","th":0.02,"at":0}`:        "bad mode",
	} {
		rec := wal.Record{Seq: 1, Type: wal.TypeSubmit, Payload: []byte(payload)}
		d := freshDaemon(t, 1)
		if err := d.NewWALApplier().Apply(rec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Apply(submit %s): err %v, want %q", payload, err, want)
		}
		if d.reg.len() != 0 {
			t.Errorf("Apply(submit %s) admitted a job", payload)
		}
	}
}

// TestWALDecodePayloadJSONLines checks that optimus-trace wal prints a
// binary observe or deploy as the JSON the old format's payload printed as.
func TestWALDecodePayloadJSONLines(t *testing.T) {
	newLine := func(typ wal.Type, bin []byte) string {
		t.Helper()
		v, err := WALDecodePayload(wal.Record{Type: typ, Payload: bin})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// oldLine is what a JSON-era payload printed as: the engine marshalled
	// the record, and optimus-trace decoded it into a fresh struct (into)
	// and marshalled that.
	oldLine := func(rec, into any) string {
		t.Helper()
		b, err := json.Marshal(rec)
		if err == nil {
			err = json.Unmarshal(b, into)
		}
		if err == nil {
			b, err = json.Marshal(into)
		}
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, p := range observeCases {
		if math.IsNaN(p.Progress) || math.IsNaN(p.Loss) || math.IsInf(p.Speed, 0) {
			continue // the old format could not write these at all
		}
		if got, want := newLine(wal.TypeObserve, p.appendTo(nil)), oldLine(p, &walObserve{}); got != want {
			t.Errorf("observe prints %s, the old format printed %s", got, want)
		}
	}
	for _, p := range deployCases {
		b, _ := p.appendTo(nil)
		if got, want := newLine(wal.TypeDeploy, b), oldLine(p, &walDeploy{}); got != want {
			t.Errorf("deploy prints %.200s, the old format printed %.200s", got, want)
		}
	}
	if got, want := newLine(wal.TypeObserve, observeCases[1].appendTo(nil)),
		`{"id":7,"prog":1.25,"ps":2,"w":4,"speed":0.5,"k":1.25,"loss":0.75}`; got != want {
		t.Errorf("observe prints %s, want %s", got, want)
	}
	b, _ := deployCases[0].appendTo(nil)
	if got, want := newLine(wal.TypeDeploy, b), `{"id":1,"state":"waiting"}`; got != want {
		t.Errorf("waiting deploy prints %s, want %s", got, want)
	}
}

// TestWALBinaryAppendAllocFree pins the round's two hot appends at zero
// allocations once the engine's buffer and the log's pending buffer are
// warm.
func TestWALBinaryAppendAllocFree(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed()})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d.AttachWAL(l)
	obs := observeCases[1]
	dep := walDeploy{ID: 9, State: StateRunning, PS: 2, W: 6,
		Nodes: []string{"node-01", "node-02", "node-03"}}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i < 5000; i++ { // past several 64 KiB writes
		d.walAppendObserve(obs)
		d.walAppendDeploy(dep)
	}
	if n := testing.AllocsPerRun(2000, func() { d.walAppendObserve(obs) }); n != 0 {
		t.Errorf("observe append allocates %.2f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(2000, func() { d.walAppendDeploy(dep) }); n != 0 {
		t.Errorf("deploy append allocates %.2f/op, want 0", n)
	}
	if d.walErrs.Load() != 0 {
		t.Fatalf("%d append errors", d.walErrs.Load())
	}
}
