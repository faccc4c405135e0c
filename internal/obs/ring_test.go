package obs

import (
	"math"
	"testing"
)

func ringValues(r *Ring[int], lo, hi int64) ([]int64, []int, int64) {
	var seqs []int64
	vals, lost := r.Range(lo, hi, func(seq int64, v *int) bool {
		seqs = append(seqs, seq)
		return true
	})
	return seqs, vals, lost
}

func TestRingWrapAndLost(t *testing.T) {
	r := NewRing[int](4)
	if seqs, _, lost := ringValues(r, 1, math.MaxInt64); seqs != nil || lost != 0 {
		t.Fatalf("empty ring: seqs %v lost %d", seqs, lost)
	}
	for i := 1; i <= 10; i++ {
		if seq := r.Put(i * 10); seq != int64(i) {
			t.Fatalf("Put %d issued seq %d", i, seq)
		}
	}
	if r.Head() != 10 {
		t.Fatalf("Head = %d, want 10", r.Head())
	}
	// 7..10 are resident; 3..6 of the window [3, 8] were overwritten.
	seqs, vals, lost := ringValues(r, 3, 8)
	if lost != 4 || len(seqs) != 2 || seqs[0] != 7 || vals[1] != 80 {
		t.Fatalf("Range(3, 8) = seqs %v vals %v lost %d", seqs, vals, lost)
	}
	// hi beyond Head is clamped; an empty or inverted window loses nothing.
	if seqs, _, lost := ringValues(r, 9, 99); len(seqs) != 2 || lost != 0 {
		t.Fatalf("Range(9, 99) = seqs %v lost %d", seqs, lost)
	}
	if seqs, _, lost := ringValues(r, 5, 2); seqs != nil || lost != 0 {
		t.Fatalf("Range(5, 2) = seqs %v lost %d", seqs, lost)
	}
	// A window wholly overwritten is all lost.
	if seqs, _, lost := ringValues(r, 1, 6); seqs != nil || lost != 6 {
		t.Fatalf("Range(1, 6) = seqs %v lost %d", seqs, lost)
	}
	// keep filters copies and never touches the stored values.
	odd, _ := r.Range(1, math.MaxInt64, func(seq int64, v *int) bool {
		*v = -*v
		return seq%2 == 1
	})
	if len(odd) != 2 || odd[0] != -70 || odd[1] != -90 {
		t.Fatalf("filtered Range = %v", odd)
	}
	if _, vals, _ := ringValues(r, 7, 7); vals[0] != 70 {
		t.Fatalf("Range mutated the ring: %v", vals)
	}
}

func TestRingUpdateAndReset(t *testing.T) {
	r := NewRing[int](2)
	for i := 1; i <= 3; i++ {
		r.Put(i)
	}
	if r.Update(1, func(v *int) { *v = 100 }) {
		t.Fatal("Update of an overwritten sequence reported resident")
	}
	if r.Update(4, func(v *int) { *v = 100 }) {
		t.Fatal("Update of a future sequence reported resident")
	}
	if !r.Update(3, func(v *int) { *v += 40 }) {
		t.Fatal("Update of a resident sequence failed")
	}
	if _, vals, _ := ringValues(r, 1, 3); len(vals) != 2 || vals[0] != 2 || vals[1] != 43 {
		t.Fatalf("after Update: %v", vals)
	}
	r.Reset()
	if r.Head() != 0 {
		t.Fatalf("Head after Reset = %d", r.Head())
	}
	if seq := r.Put(7); seq != 1 {
		t.Fatalf("first Put after Reset issued %d, want 1", seq)
	}
	if _, vals, _ := ringValues(r, 1, 9); len(vals) != 1 || vals[0] != 7 {
		t.Fatalf("after Reset: %v", vals)
	}
}

func TestRingPutDoesNotAllocate(t *testing.T) {
	r := NewRing[FlightEvent](8)
	ev := FlightEvent{Component: "engine", Msg: "round", NKV: 1}
	if n := testing.AllocsPerRun(200, func() { r.Put(ev) }); n != 0 {
		t.Fatalf("Put allocates %.1f/op, want 0", n)
	}
}
