package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"optimus/internal/baselines"
	"optimus/internal/cluster"
	"optimus/internal/core"
	"optimus/internal/metrics"
	"optimus/internal/obs"
)

// refPlace is Round.Place as it was before the shrink loop skipped the
// steps beyond a job's core.Headroom, kept verbatim (modulo the name, and a
// session policy retrying through its bare §4.2 kernel, as Round.Place does)
// as an executable specification: every shrink step calls the placer.
func (r *Round) refPlace() {
	span := r.trace.Begin("place")
	start := time.Now()
	r.reqs = r.reqs[:0]
	for _, in := range r.infos {
		if a := r.alloc(in.ID); a.PS > 0 && a.Workers > 0 {
			r.reqs = append(r.reqs, request(in, a))
		}
	}
	inc, place := r.policy.Incr, r.policy.Place
	if inc == nil {
		r.prepare(r.cluster)
	}
	var unplaced []int
	r.placed, unplaced = place(r.reqs, r.cluster)
	if inc != nil {
		place = inc.Place.St.Place
	}
	clear(r.rescued)
	for _, id := range unplaced {
		a, info := r.alloc(id), r.byID[id]
		if info == nil || a.PS < 1 || a.Workers < 1 {
			continue
		}
		for a.PS+a.Workers > 2 {
			if a.Workers >= a.PS {
				a.Workers--
			} else {
				a.PS--
			}
			r.retry[0] = request(info, a)
			if pls, unp := place(r.retry[:], r.cluster); len(unp) == 0 {
				r.rescued[id] = pls[id]
				break
			}
		}
	}
	if inc != nil {
		r.rec.SetIncrStats(inc.Stats())
	}
	r.rec.ObservePlaceDuration(time.Since(start).Seconds())
	r.trace.End(span)
}

// pruneJobs is a seeded pool of uncapped jobs with smooth speed surfaces.
func pruneJobs(rng *rand.Rand, n int) []core.JobInfo {
	jobs := make([]core.JobInfo, n)
	for i := range jobs {
		a, b, c := 0.5+rng.Float64(), 0.1+rng.Float64(), 0.02+0.1*rng.Float64()
		jobs[i] = core.JobInfo{
			ID:            i + 1,
			RemainingWork: 1e4 * (0.5 + rng.Float64()),
			Speed: func(p, w int) float64 {
				if p <= 0 || w <= 0 {
					return 0
				}
				pf, wf := float64(p), float64(w)
				return a * wf / (1 + b*wf/pf + c*wf)
			},
			WorkerRes: cluster.Resources{cluster.CPU: 2 + 2*rng.Float64(), cluster.Memory: 4 + 8*rng.Float64()},
			PSRes:     cluster.Resources{cluster.CPU: 1 + rng.Float64(), cluster.Memory: 2 + 8*rng.Float64()},
		}
	}
	return jobs
}

// pruneCluster is a small heterogeneous cluster, partly made of nodes too
// small for some profiles, so grants against aggregate capacity often do not
// pack.
func pruneCluster(rng *rand.Rand) func() *cluster.Cluster {
	caps := make([]cluster.Resources, 3+rng.Intn(10))
	for i := range caps {
		caps[i] = cluster.Resources{
			cluster.CPU:    float64(4 + 4*rng.Intn(6)),
			cluster.Memory: float64(8 + 16*rng.Intn(5)),
		}
	}
	return func() *cluster.Cluster {
		c := cluster.New()
		for i, cp := range caps {
			if err := c.AddNode(cluster.NewNode(fmt.Sprintf("n%02d", i), cp)); err != nil {
				panic(err)
			}
		}
		return c
	}
}

// TestRoundPlaceMatchesReference drives Round.Place and refPlace side by
// side over seeded random rounds — jobs arriving, leaving and progressing,
// and rounds that repeat the last one's input — and requires the same
// placements, the same cluster state and the same session counters every
// round. It covers a
// session policy and two stateless ones (the §4.2 kernel and the partial
// SpreadPlace), traced and not, and requires the session to have skipped
// placer calls while the stateless policies made exactly the reference's.
func TestRoundPlaceMatchesReference(t *testing.T) {
	policies := map[string]func(calls *int) Policy{
		"session": func(*int) Policy { return OptimusPolicy().Session() },
		"stateless-core": func(calls *int) Policy {
			return Hybrid("optimus-alloc", core.Allocate, countPlace(calls, core.Place))
		},
		"stateless-spread": func(calls *int) Policy {
			return Hybrid("optimus-alloc", core.Allocate, countPlace(calls, baselines.SpreadPlace))
		},
	}
	for name, mk := range policies {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				var newCalls, refCalls int
				for seed := int64(1); seed <= 40; seed++ {
					rng := rand.New(rand.NewSource(seed))
					pool := pruneJobs(rng, 4+rng.Intn(12))
					build := pruneCluster(rng)
					newC, refC := build(), build()
					var newTr, refTr *obs.Tracer
					if traced {
						newTr, refTr = obs.NewTracer(1<<16), obs.NewTracer(1<<16)
					}
					newP, refP := mk(&newCalls), mk(&refCalls)
					newR := NewRound(newP, newC, nil, newTr, nil, metrics.NewRecorder())
					refR := NewRound(refP, refC, nil, refTr, nil, metrics.NewRecorder())
					var infos []*core.JobInfo
					for round := 0; round < 8; round++ {
						if round == 0 || rng.Intn(3) > 0 {
							infos = infos[:0]
							for i := range pool {
								if rng.Intn(4) > 0 {
									pool[i].RemainingWork *= 0.7 + 0.3*rng.Float64()
									in := pool[i]
									infos = append(infos, &in)
								}
							}
						}
						newR.Allocate(infos, newC.Capacity())
						refR.Allocate(infos, refC.Capacity())
						newR.Place()
						refR.refPlace()
						for _, in := range infos {
							got, gok := newR.Placement(in.ID)
							want, wok := refR.Placement(in.ID)
							if gok != wok || !reflect.DeepEqual(got, want) {
								t.Fatalf("seed %d round %d job %d: placed %v %+v, reference %v %+v",
									seed, round, in.ID, gok, got, wok, want)
							}
						}
						for i, n := range newC.Nodes() {
							if n.Used() != refC.Nodes()[i].Used() {
								t.Fatalf("seed %d round %d: node %s uses %v, reference %v",
									seed, round, n.ID, n.Used(), refC.Nodes()[i].Used())
							}
						}
						if newP.Incr != nil && newP.Incr.Stats() != refP.Incr.Stats() {
							t.Fatalf("seed %d round %d: session counters %+v, reference %+v",
								seed, round, newP.Incr.Stats(), refP.Incr.Stats())
						}
					}
					if traced {
						newCalls += kernelSpans(newTr)
						refCalls += kernelSpans(refTr)
					}
				}
				switch {
				case name == "session" && traced && newCalls >= refCalls:
					t.Errorf("%d placement-kernel calls, reference %d: no shrink step was skipped", newCalls, refCalls)
				case name != "session" && newCalls != refCalls:
					t.Errorf("%d placer calls, reference %d: a stateless policy must try every shrink step", newCalls, refCalls)
				}
			})
		}
	}
}

// countPlace wraps a stateless placer to count its calls.
func countPlace(calls *int, place func([]core.PlacementRequest, *cluster.Cluster) (map[int]core.Placement, []int),
) func([]core.PlacementRequest, *cluster.Cluster) (map[int]core.Placement, []int) {
	return func(reqs []core.PlacementRequest, c *cluster.Cluster) (map[int]core.Placement, []int) {
		*calls++
		return place(reqs, c)
	}
}

func kernelSpans(tr *obs.Tracer) int {
	n := 0
	for _, s := range tr.Spans() {
		if s.Name == "place-kernel" {
			n++
		}
	}
	return n
}

// TestRoundNeverPrunesPartialPlacers is the guard for the stateless path: a
// SpreadPlace retry packs a job whose request is beyond its headroom (pods
// that fit run), so a round on a stateless policy must try that step.
func TestRoundNeverPrunesPartialPlacers(t *testing.T) {
	in := &core.JobInfo{ID: 1,
		WorkerRes: cluster.Resources{cluster.CPU: 4}, PSRes: cluster.Resources{cluster.CPU: 1}}
	// One 12-CPU node. The grant of 6 PS + 6 workers does not fit; its first
	// shrink step, 6 PS + 5 workers (26 CPU), is beyond the headroom, and
	// SpreadPlace places 6 PS + 1 worker of it. The first step the headroom
	// admits is 3 PS + 2 workers, so a pruned round would place five tasks.
	c := cluster.Uniform(1, cluster.Resources{cluster.CPU: 12})
	step := core.Allocation{PS: 6, Workers: 5}
	if core.NewHeadroom(in.WorkerRes, in.PSRes, c).Admits(step) {
		t.Fatalf("the headroom admits %+v on one 12-CPU node", step)
	}
	p := Policy{
		Name: "spread",
		Allocate: func([]*core.JobInfo, cluster.Resources) map[int]core.Allocation {
			return map[int]core.Allocation{1: {PS: 6, Workers: 6}}
		},
		Place: func(reqs []core.PlacementRequest, c *cluster.Cluster) (map[int]core.Placement, []int) {
			if reqs[0].Alloc.Workers == 6 { // the round's first call: the job pends
				return map[int]core.Placement{}, []int{1}
			}
			return baselines.SpreadPlace(reqs, c)
		},
	}
	r := NewRound(p, c, nil, nil, nil, metrics.NewRecorder())
	r.Allocate([]*core.JobInfo{in}, c.Capacity())
	r.Place()
	pl, ok := r.Placement(1)
	if ps, w := pl.Counts(); !ok || ps != 6 || w != 1 {
		t.Errorf("job placed %v at %d PS + %d workers, want SpreadPlace's 6 + 1 from the first shrink step", ok, ps, w)
	}
}
