package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTracerNesting(t *testing.T) {
	tr := NewTracer(64)
	outer := tr.Begin("interval")
	inner := tr.Begin("allocate")
	leaf := tr.BeginJob("grant", 7)
	tr.End(leaf)
	tr.End(inner)
	tr.Annotate(outer, "round=1")
	tr.End(outer)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["allocate"].Parent != byName["interval"].ID {
		t.Errorf("allocate parent = %d, want %d", byName["allocate"].Parent, byName["interval"].ID)
	}
	if byName["grant"].Parent != byName["allocate"].ID {
		t.Errorf("grant parent = %d, want %d", byName["grant"].Parent, byName["allocate"].ID)
	}
	if byName["grant"].Job != 7 {
		t.Errorf("grant job = %d, want 7", byName["grant"].Job)
	}
	if byName["interval"].Detail != "round=1" {
		t.Errorf("detail = %q", byName["interval"].Detail)
	}
	if byName["interval"].Parent != 0 {
		t.Errorf("root span has parent %d", byName["interval"].Parent)
	}
	for _, s := range spans {
		if s.Dur < 0 {
			t.Errorf("span %s still open (dur %d)", s.Name, s.Dur)
		}
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 50; i++ {
		tr.End(tr.Begin("s"))
	}
	spans := tr.Spans()
	if len(spans) != 8 {
		t.Fatalf("got %d spans, want ring size 8", len(spans))
	}
	for i, s := range spans {
		if want := int64(43 + i); s.ID != want {
			t.Errorf("span %d: ID %d, want %d", i, s.ID, want)
		}
	}
	if tr.Len() != 50 {
		t.Errorf("Len = %d, want 50", tr.Len())
	}
}

// TestTracerDisabledAndNil: a nil tracer, the disabled state, records
// nothing and never panics.
func TestTracerDisabledAndNil(t *testing.T) {
	var nilT *Tracer
	if nilT.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	nilT.End(nilT.Begin("x")) // must not panic
	nilT.Annotate(NoSpan, "y")
	if got := nilT.Spans(); got != nil {
		t.Errorf("nil tracer spans = %v", got)
	}
	if n := nilT.Len(); n != 0 {
		t.Errorf("nil tracer recorded %d spans", n)
	}
}

// TestTracerConcurrentExport exercises Spans racing Begin/End — the
// daemon serves /v1/trace while the scheduling loop records.
func TestTracerConcurrentExport(t *testing.T) {
	tr := NewTracer(128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sp := tr.Begin("work")
				tr.End(sp)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		tr.Spans()
	}
	close(stop)
	wg.Wait()
	for _, s := range tr.Spans() {
		if s.Name != "work" || s.Dur < 0 {
			t.Fatalf("torn span %+v", s)
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	outer := tr.Begin("interval")
	tr.End(tr.BeginJob("allocate", 3))
	tr.Annotate(outer, `quote " backslash \ newline`+"\n")
	tr.End(outer)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"traceEvents"`) {
		t.Errorf("missing traceEvents key")
	}
	back, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	orig := tr.Spans()
	if len(back) != len(orig) {
		t.Fatalf("round trip: %d spans, want %d", len(back), len(orig))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Errorf("span %d: got %+v, want %+v", i, back[i], orig[i])
		}
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON: %s", buf.String())
	}
	back, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Errorf("empty trace decoded to %d spans", len(back))
	}
}
