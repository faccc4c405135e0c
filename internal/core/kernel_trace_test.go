package core

import (
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/obs"
	"optimus/internal/speedfit"
)

// TestAllocateTraceSpan: a traced §4.1 kernel records one "alloc-kernel"
// span per Allocate call.
func TestAllocateTraceSpan(t *testing.T) {
	jobs := []*JobInfo{
		jobFromModel(0, "resnet-50", speedfit.Sync, 1e6),
		jobFromModel(1, "cnn-rand", speedfit.Async, 1e5),
	}
	st := NewAllocState()
	st.Trace = obs.NewTracer(16)
	st.Allocate(jobs, capFor(30))
	if spans := st.Trace.Spans(); len(spans) != 1 || spans[0].Name != "alloc-kernel" {
		t.Errorf("spans = %+v, want one alloc-kernel", spans)
	}
}

// TestPlaceTraceSpan: a traced §4.2 kernel records one "place-kernel" span
// per Place call, and flags the placement its exact Theorem-1 even split
// produced.
func TestPlaceTraceSpan(t *testing.T) {
	c := cluster.Uniform(4, capFor(3))
	st := NewPlaceState()
	st.Trace = obs.NewTracer(16)
	pls, unplaced := st.Place([]PlacementRequest{placeReq(0, 2, 4)}, c)
	if len(unplaced) != 0 {
		t.Fatalf("unplaced: %v", unplaced)
	}
	if pl := pls[0]; !pl.Even || pl.Spread() != 0 {
		t.Errorf("even split placed as %+v (even %v, spread %d)", pl, pl.Even, pl.Spread())
	}
	if sp := st.Trace.Spans(); len(sp) != 1 || sp[0].Name != "place-kernel" {
		t.Errorf("spans = %+v, want one place-kernel", sp)
	}
}

// TestPlacementSpread pins the audit evenness metric.
func TestPlacementSpread(t *testing.T) {
	if got := (Placement{}).Spread(); got != 0 {
		t.Errorf("empty spread = %d", got)
	}
	pl := Placement{
		NodeIDs:       []string{"a", "b", "c"},
		PSOnNode:      []int{1, 0, 0},
		WorkersOnNode: []int{3, 2, 1},
	}
	if got := pl.Spread(); got != 3 {
		t.Errorf("spread = %d, want 3 (max 4 − min 1)", got)
	}
}
