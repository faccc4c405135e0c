package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{CPU: 4, Memory: 8}
	b := Resources{CPU: 1, Memory: 2, GPU: 1}
	sum := a.Add(b)
	if sum[CPU] != 5 || sum[Memory] != 10 || sum[GPU] != 1 {
		t.Errorf("Add = %v", sum)
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Errorf("Sub = %v, want %v", diff, a)
	}
	sc := a.Scale(2)
	if sc[CPU] != 8 || sc[Memory] != 16 {
		t.Errorf("Scale = %v", sc)
	}
}

func TestResourcesFits(t *testing.T) {
	cap := Resources{CPU: 10, Memory: 20}
	if !(Resources{CPU: 10, Memory: 20}).Fits(cap) {
		t.Error("exact fit rejected")
	}
	if (Resources{CPU: 10.1}).Fits(cap) {
		t.Error("oversized request accepted")
	}
	if !(Resources{}).Fits(cap) {
		t.Error("zero request rejected")
	}
}

func TestDominantShare(t *testing.T) {
	capT := Resources{CPU: 100, Memory: 200, GPU: 10, Bandwidth: 10}
	share, rt := (Resources{CPU: 10, Memory: 10, GPU: 2}).DominantShare(capT)
	if rt != GPU || share != 0.2 {
		t.Errorf("DominantShare = %g %v, want 0.2 gpu", share, rt)
	}
	// Zero-capacity dimensions are skipped.
	capNoGPU := Resources{CPU: 100}
	share, rt = (Resources{CPU: 5, GPU: 99}).DominantShare(capNoGPU)
	if rt != CPU || share != 0.05 {
		t.Errorf("DominantShare = %g %v, want 0.05 cpu", share, rt)
	}
}

func TestNodeAllocateRelease(t *testing.T) {
	n := NewNode("a", Resources{CPU: 10, Memory: 10})
	req := Resources{CPU: 4, Memory: 2}
	if err := n.Allocate(req); err != nil {
		t.Fatal(err)
	}
	if got := n.Used(); got != req {
		t.Errorf("Used = %v, want %v", got, req)
	}
	if got := n.Available(); got[CPU] != 6 || got[Memory] != 8 {
		t.Errorf("Available = %v", got)
	}
	if err := n.Allocate(Resources{CPU: 7}); err == nil {
		t.Error("expected over-allocation error")
	}
	if err := n.Release(req); err != nil {
		t.Fatal(err)
	}
	if !n.Used().IsZero() {
		t.Errorf("Used = %v after full release", n.Used())
	}
	if err := n.Release(req); err == nil {
		t.Error("expected error releasing more than allocated")
	}
}

func TestClusterAddAndLookup(t *testing.T) {
	c := New()
	if err := c.AddNode(NewNode("n1", Resources{CPU: 4})); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode(NewNode("n1", Resources{CPU: 4})); err == nil {
		t.Error("expected duplicate-ID error")
	}
	if c.Node("n1") == nil {
		t.Error("lookup failed")
	}
	if c.Node("missing") != nil {
		t.Error("expected nil for missing node")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestClusterAggregates(t *testing.T) {
	c := Uniform(3, Resources{CPU: 8, Memory: 16})
	total := c.Capacity()
	if total[CPU] != 24 || total[Memory] != 48 {
		t.Errorf("Capacity = %v", total)
	}
	if err := c.Nodes()[0].Allocate(Resources{CPU: 2}); err != nil {
		t.Fatal(err)
	}
	if got := c.Used(); got[CPU] != 2 {
		t.Errorf("Used = %v", got)
	}
	if got := c.Available(); got[CPU] != 22 {
		t.Errorf("Available = %v", got)
	}
	c.ResetAll()
	if !c.Used().IsZero() {
		t.Error("ResetAll left allocations")
	}
}

func TestSortedByAvailable(t *testing.T) {
	c := Uniform(3, Resources{CPU: 8})
	if err := c.Node("node-0").Allocate(Resources{CPU: 6}); err != nil {
		t.Fatal(err)
	}
	if err := c.Node("node-1").Allocate(Resources{CPU: 2}); err != nil {
		t.Fatal(err)
	}
	order := c.SortedByAvailable(CPU)
	if order[0].ID != "node-2" || order[1].ID != "node-1" || order[2].ID != "node-0" {
		t.Errorf("order = %s %s %s", order[0].ID, order[1].ID, order[2].ID)
	}
	// Ties break by ID.
	c2 := Uniform(3, Resources{CPU: 8})
	order2 := c2.SortedByAvailable(CPU)
	if order2[0].ID != "node-0" {
		t.Errorf("tie-break order starts with %s", order2[0].ID)
	}
}

func TestTestbedShape(t *testing.T) {
	c := Testbed()
	if c.Len() != 13 {
		t.Fatalf("testbed has %d nodes, want 13", c.Len())
	}
	capT := c.Capacity()
	// 7×16 + 6×8 = 160 cores, 6×2 = 12 GPUs.
	if capT[CPU] != 160 {
		t.Errorf("CPU capacity = %g, want 160", capT[CPU])
	}
	if capT[GPU] != 12 {
		t.Errorf("GPU capacity = %g, want 12", capT[GPU])
	}
}

func TestResourcesString(t *testing.T) {
	if got := (Resources{}).String(); got != "{}" {
		t.Errorf("zero string = %q", got)
	}
	got := (Resources{CPU: 5, Memory: 10}).String()
	if got != "{cpu=5 mem=10}" {
		t.Errorf("String = %q", got)
	}
}

// Property: any sequence of feasible Allocate calls followed by matching
// Release calls returns the node to its initial state.
func TestAllocateReleaseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := NewNode("x", Resources{CPU: 100, Memory: 100, GPU: 10, Bandwidth: 10})
		var granted []Resources
		for i := 0; i < 20; i++ {
			req := Resources{
				CPU:    float64(r.Intn(10)),
				Memory: float64(r.Intn(10)),
				GPU:    float64(r.Intn(2)),
			}
			if n.Allocate(req) == nil {
				granted = append(granted, req)
			}
		}
		for _, g := range granted {
			if n.Release(g) != nil {
				return false
			}
		}
		return n.Used().IsZero()
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Allocate never lets Used exceed Capacity.
func TestCapacityInvariant(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := NewNode("x", Resources{CPU: 16, Memory: 32})
		for i := 0; i < 50; i++ {
			req := Resources{CPU: r.Float64() * 8, Memory: r.Float64() * 16}
			_ = n.Allocate(req) // may fail; that's fine
			if !n.Used().Fits(n.Capacity) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
