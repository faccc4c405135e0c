package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestFlightRecordSnapshot(t *testing.T) {
	f := NewFlightRecorder(64)
	f.Record("engine", SevInfo, "round", KI("round", 1), KF("simTime", 600))
	f.Record("wal", SevError, "append failed", KS("err", "disk gone"))
	f.Record("ha", SevWarn, "lag", KU("records", 7), KB("torn", true))

	evs := f.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("Snapshot returned %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Wall == 0 {
			t.Fatalf("event %d has zero wall clock", i)
		}
	}
	if evs[0].Component != "engine" || evs[0].Sev != SevInfo || evs[0].Msg != "round" {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	attrs := evs[2].Attrs()
	if attrs["records"] != uint64(7) || attrs["torn"] != true {
		t.Fatalf("event 2 attrs = %v", attrs)
	}
	if got := evs[1].Attrs()["err"]; got != "disk gone" {
		t.Fatalf("event 1 err attr = %v", got)
	}
}

func TestFlightWraparound(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		f.Record("c", SevDebug, "ev", KI("i", int64(i)))
	}
	evs := f.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("Snapshot returned %d events, want ring size 8", len(evs))
	}
	for i, ev := range evs {
		want := uint64(13 + i) // 20 recorded, ring keeps 13..20
		if ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if f.Len() != 20 {
		t.Fatalf("Len = %d, want 20", f.Len())
	}
	if tail := f.Tail(3); len(tail) != 3 || tail[2].Seq != 20 {
		t.Fatalf("Tail(3) = %v", tail)
	}
}

func TestFlightDisabledAndNil(t *testing.T) {
	var nilRec *FlightRecorder
	nilRec.Record("c", SevInfo, "dropped")
	if nilRec.Snapshot() != nil || nilRec.Len() != 0 || nilRec.Enabled() {
		t.Fatal("nil recorder should be inert")
	}
	f := NewFlightRecorder(8)
	f.SetEnabled(false)
	f.Record("c", SevInfo, "dropped")
	if f.Len() != 0 {
		t.Fatal("disabled recorder recorded an event")
	}
	f.SetEnabled(true)
	f.Record("c", SevInfo, "kept")
	if f.Len() != 1 {
		t.Fatal("re-enabled recorder dropped an event")
	}
}

func TestFlightConcurrent(t *testing.T) {
	f := NewFlightRecorder(128)
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.Record("w", SevDebug, "ev", KI("writer", int64(w)), KI("i", int64(i)))
			}
		}(w)
	}
	// Snapshot concurrently with the writers: must not tear or panic.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, ev := range f.Snapshot() {
				if ev.Component != "w" || ev.Msg != "ev" {
					panic(fmt.Sprintf("torn event: %+v", ev))
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if f.Len() != writers*per {
		t.Fatalf("Len = %d, want %d", f.Len(), writers*per)
	}
	evs := f.Snapshot()
	if len(evs) != 128 {
		t.Fatalf("Snapshot returned %d events, want 128", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous sequences %d -> %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestFlightRecordDoesNotAllocate(t *testing.T) {
	f := NewFlightRecorder(64)
	if n := testing.AllocsPerRun(200, func() {
		f.Record("engine", SevInfo, "round",
			KI("round", 1), KF("simTime", 600), KU("jobs", 3), KB("ok", true))
	}); n != 0 {
		t.Fatalf("enabled Record allocates %.1f/op, want 0", n)
	}
	f.SetEnabled(false)
	if n := testing.AllocsPerRun(200, func() {
		f.Record("engine", SevInfo, "round", KI("round", 1))
	}); n != 0 {
		t.Fatalf("disabled Record allocates %.1f/op, want 0", n)
	}
}

func TestFlightEventJSONRoundTrip(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record("ha", SevError, "lease lost", KS("holder", "intruder"), KI("term", 4))
	b, err := json.Marshal(f.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back []FlightEvent
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	if len(back) != 1 {
		t.Fatalf("round-trip returned %d events", len(back))
	}
	ev := back[0]
	if ev.Seq != 1 || ev.Component != "ha" || ev.Sev != SevError || ev.Msg != "lease lost" {
		t.Fatalf("round-trip event = %+v", ev)
	}
	attrs := ev.Attrs()
	if attrs["holder"] != "intruder" {
		t.Fatalf("round-trip attrs = %v", attrs)
	}
	if s := ev.String(); s == "" {
		t.Fatal("String() empty")
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlightRecorder(0)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			f.Record("engine", SevDebug, "round",
				KI("round", 7), KU("jobs", 100), KF("simTime", 4200))
		}
	})
}
