package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"optimus/internal/cluster"
)

// placeGen draws placer inputs from a stream of small ints: a seeded rand in
// the tests, the fuzzer's bytes in FuzzPlaceMatchesReference.
type placeGen struct{ next func() int }

func (g placeGen) intn(n int) int { return g.next() % n }

// demand draws a task profile: on the 0.5-core grid, off it, or with a zero
// CPU or memory component.
func (g placeGen) demand() cluster.Resources {
	cpu, mem := float64(1+g.intn(8))/2, float64(1+g.intn(16))
	switch g.intn(4) {
	case 1: // off-grid: spare CPU rarely ties
		cpu, mem = float64(1+g.intn(97))/23, float64(1+g.intn(89))/7
	case 2:
		cpu = 0
	case 3:
		mem = 0
	}
	return cluster.Resources{cluster.CPU: cpu, cluster.Memory: mem}
}

// node draws one node named id: uniform, or of mixed size, and sometimes
// partly used.
func (g placeGen) node(id string, uniform bool) *cluster.Node {
	capacity := cluster.Resources{cluster.CPU: 16, cluster.Memory: 64}
	if !uniform {
		capacity = cluster.Resources{cluster.CPU: float64(4 + 4*g.intn(8)), cluster.Memory: float64(16 + 16*g.intn(6))}
	}
	n := cluster.NewNode(id, capacity)
	for u := g.intn(4); u > 0 && g.intn(2) == 0; u-- {
		_ = n.Allocate(g.demand()) // a task that does not fit leaves the node as it was
	}
	return n
}

// request draws one placement request for job id with up to maxTasks tasks
// of each kind.
func (g placeGen) request(id, maxTasks int) PlacementRequest {
	return PlacementRequest{
		JobID:     id,
		Alloc:     Allocation{PS: g.intn(maxTasks/3 + 1), Workers: g.intn(maxTasks + 1)},
		WorkerRes: g.demand(),
		PSRes:     g.demand(),
	}
}

// twin builds two clusters with the same nodes in the same insertion order
// and state, one for refPlace and one for PlaceState.Place.
func twin(nodes []*cluster.Node) (ref, got *cluster.Cluster) {
	ref, got = cluster.New(), cluster.New()
	for _, n := range nodes {
		m := cluster.NewNode(n.ID, n.Capacity)
		if used := n.Used(); !used.IsZero() {
			if err := m.Allocate(used); err != nil {
				panic(err)
			}
		}
		if ref.AddNode(n) != nil || got.AddNode(m) != nil {
			panic("twin: duplicate node id " + n.ID)
		}
	}
	return ref, got
}

// samePlace runs refPlace on ref and st.Place on got and fails on any
// difference in the placements, the unplaced jobs or a node's usage.
func samePlace(t *testing.T, what string, st *PlaceState, reqs []PlacementRequest, ref, got *cluster.Cluster) {
	t.Helper()
	wantPl, wantUn := refPlace(reqs, ref)
	gotPl, gotUn := st.Place(reqs, got)
	if !reflect.DeepEqual(wantPl, gotPl) || !reflect.DeepEqual(wantUn, gotUn) {
		t.Fatalf("%s: placements diverge\nref: %v unplaced %v\nnew: %v unplaced %v", what, wantPl, wantUn, gotPl, gotUn)
	}
	for i, n := range ref.Nodes() {
		if m := got.Nodes()[i]; n.Used() != m.Used() {
			t.Fatalf("%s: node %s usage diverges: ref %v, new %v", what, n.ID, n.Used(), m.Used())
		}
	}
}

// TestEvenPrefixMatchesScan requires the two-pointer Theorem-1 search to
// return the same k, and the same ok, as testing every prefix whole, on
// uniform, mixed and partly used clusters, grid and off-grid profiles with
// zero components, and bounds both below and at the cluster size. The index
// itself must be the cluster's §4.2 order.
func TestEvenPrefixMatchesScan(t *testing.T) {
	st := NewPlaceState()
	var found, none, wide int
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(9000 + seed))
		g := placeGen{next: func() int { return r.Intn(1 << 20) }}
		n := 1 + r.Intn(30)
		if r.Intn(3) == 0 {
			n = 1 + r.Intn(400)
		}
		c := cluster.New()
		for i := 0; i < n; i++ {
			if err := c.AddNode(g.node(fmt.Sprintf("node-%d", i), seed%2 == 0)); err != nil {
				t.Fatal(err)
			}
		}
		req := g.request(int(seed), 1+r.Intn(3*n))
		p, w := req.Alloc.PS, req.Alloc.Workers
		bound := min(p+w+16, n)
		if bound < n {
			wide++
		}
		st.sortIndex(c)
		sorted := c.SortedByAvailable(cluster.CPU)
		for i, pos := range st.index {
			if c.Nodes()[pos] != sorted[i] {
				t.Fatalf("seed %d: index slot %d holds %s, §4.2 order has %s", seed, i, c.Nodes()[pos].ID, sorted[i].ID)
			}
		}
		wantK, wantOK := refEvenPrefix(req, sorted, bound, p, w)
		gotK, gotOK := st.evenPrefix(req, c.Nodes(), bound, p, w)
		if gotK != wantK || gotOK != wantOK {
			t.Fatalf("seed %d (%d nodes, p=%d w=%d, bound %d): scan k=%d ok=%v, walk k=%d ok=%v",
				seed, n, p, w, bound, wantK, wantOK, gotK, gotOK)
		}
		if gotOK {
			found++
		} else {
			none++
		}
	}
	if found == 0 || none == 0 || wide == 0 {
		t.Fatalf("instances cover too little: %d found, %d with no even prefix, %d bounded below the cluster size", found, none, wide)
	}
	t.Logf("%d found, %d with no even prefix, %d bounded below the cluster size", found, none, wide)
}

// TestPlaceStateReuseSameCluster reuses one PlaceState on one cluster that
// the caller changes between calls — a task allocated or released on a
// node, ResetAll, AddNode, or nothing (a shrink retry) — and requires every
// result to match refPlace. The "node-%d" IDs sort apart from insertion
// order (node-10 < node-2), and added nodes land between them.
func TestPlaceStateReuseSameCluster(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(300 + seed))
		g := placeGen{next: func() int { return r.Intn(1 << 20) }}
		var nodes []*cluster.Node
		for i := 0; i < 4+r.Intn(20); i++ {
			nodes = append(nodes, g.node(fmt.Sprintf("node-%d", i), seed%2 == 0))
		}
		ref, got := twin(nodes)
		st := NewPlaceState()
		for step := 0; step < 30; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			i := r.Intn(ref.Len())
			nr, ng := ref.Nodes()[i], got.Nodes()[i]
			switch op := r.Intn(5); op {
			case 0:
				if d := g.demand(); nr.Allocate(d) == nil {
					if err := ng.Allocate(d); err != nil {
						t.Fatal(err)
					}
				}
			case 1:
				half := nr.Used().Scale(0.5)
				if nr.Release(half) != nil || ng.Release(half) != nil {
					t.Fatalf("%s: releasing half of %s's usage failed", what, nr.ID)
				}
			case 2:
				ref.ResetAll()
				got.ResetAll()
			case 3:
				id := fmt.Sprintf("node-%d", ref.Len())
				capacity := cluster.Resources{cluster.CPU: float64(4 + 4*r.Intn(8)), cluster.Memory: 64}
				if ref.AddNode(cluster.NewNode(id, capacity)) != nil || got.AddNode(cluster.NewNode(id, capacity)) != nil {
					t.Fatal("duplicate node id " + id)
				}
			}
			reqs := make([]PlacementRequest, 1+r.Intn(4))
			for j := range reqs {
				reqs[j] = g.request(j, 12)
			}
			samePlace(t, what, st, reqs, ref, got)
		}
	}
}

// TestPlaceStateReuseAcrossClusters alternates one PlaceState between
// clusters of the same size whose ID order differs, none of them the
// insertion order: cluster.Uniform's (node-10 < node-2), the same IDs
// inserted in reverse, and shuffled. A rank or index kept from the previous
// cluster would place on the wrong servers.
func TestPlaceStateReuseAcrossClusters(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := placeGen{next: func() int { return r.Intn(1 << 20) }}
	capacity := cluster.Resources{cluster.CPU: 16, cluster.Memory: 64}
	const n = 24
	var pairs [][2]*cluster.Cluster
	for order := 0; order < 3; order++ {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		switch order {
		case 1:
			slices.Reverse(ids)
		case 2:
			r.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		}
		var nodes []*cluster.Node
		for _, i := range ids {
			nodes = append(nodes, cluster.NewNode(fmt.Sprintf("node-%d", i), capacity))
		}
		ref, got := twin(nodes)
		pairs = append(pairs, [2]*cluster.Cluster{ref, got})
	}
	st := NewPlaceState()
	for step := 0; step < 60; step++ {
		pair := pairs[r.Intn(len(pairs))]
		if r.Intn(3) == 0 {
			pair[0].ResetAll()
			pair[1].ResetAll()
		}
		reqs := make([]PlacementRequest, 1+r.Intn(4))
		for j := range reqs {
			reqs[j] = g.request(j, 10)
		}
		samePlace(t, fmt.Sprintf("step %d", step), st, reqs, pair[0], pair[1])
	}
}

// FuzzPlaceMatchesReference checks PlaceState.Place against refPlace on a
// small fuzzed cluster: one batch of requests, then a second on the cluster
// the first left, through the same state.
func FuzzPlaceMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9})
	f.Add([]byte{255, 0, 255, 1, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		i := 0
		g := placeGen{next: func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[i%len(data)]
			i++
			return int(b)
		}}
		n := 1 + g.intn(12)
		uniform := g.intn(2) == 0
		var nodes []*cluster.Node
		seen := map[string]bool{}
		for range n {
			// Drawn IDs, so that rank and insertion order disagree.
			if id := fmt.Sprintf("node-%d", g.intn(3*n)); !seen[id] {
				seen[id] = true
				nodes = append(nodes, g.node(id, uniform))
			}
		}
		ref, got := twin(nodes)
		st := NewPlaceState()
		for batch := 0; batch < 2; batch++ {
			reqs := make([]PlacementRequest, 1+g.intn(5))
			for j := range reqs {
				reqs[j] = g.request(j, 8)
			}
			samePlace(t, fmt.Sprintf("batch %d", batch), st, reqs, ref, got)
		}
	})
}
