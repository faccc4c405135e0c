package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"optimus/internal/core"
)

// incrDelta is what the incremental scheduling sessions did over a measured
// phase: how often each tier fell back to a full recompute (useful outcomes
// over attempts for the incremental tiers) and how many tasks moved.
type incrDelta struct {
	rounds                int
	allocFull, allocTotal uint64
	placeFull, placeTotal uint64
	tasksMigrated         uint64
}

func incrSince(before, after core.IncrStats, rounds int) incrDelta {
	d := incrDelta{rounds: rounds}
	d.allocFull = after.AllocFull - before.AllocFull
	d.allocTotal = d.allocFull + after.AllocClean - before.AllocClean +
		after.AllocIncremental - before.AllocIncremental
	d.placeFull = after.PlaceFull - before.PlaceFull
	d.placeTotal = d.placeFull + after.PlaceClean - before.PlaceClean +
		after.PlacePartial - before.PlacePartial
	d.tasksMigrated = after.TasksMigrated - before.TasksMigrated
	return d
}

// add accumulates another replica's delta.
func (d *incrDelta) add(o incrDelta) {
	d.rounds += o.rounds
	d.allocFull += o.allocFull
	d.allocTotal += o.allocTotal
	d.placeFull += o.placeFull
	d.placeTotal += o.placeTotal
	d.tasksMigrated += o.tasksMigrated
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (d incrDelta) metrics() []metric {
	perRound := 0.0
	if d.rounds > 0 {
		perRound = float64(d.tasksMigrated) / float64(d.rounds)
	}
	return []metric{
		{Name: "core.alloc_full_frac", Value: ratio(d.allocFull, d.allocTotal), Unit: "ratio", N: int(d.allocTotal)},
		{Name: "core.place_full_frac", Value: ratio(d.placeFull, d.placeTotal), Unit: "ratio", N: int(d.placeTotal)},
		{Name: "core.tasks_migrated_per_round", Value: perRound, Unit: "count", N: d.rounds},
	}
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCPU, totalCPU float64 // seconds
	allocBytes      uint64
	heapBytes       uint64
}

func readRuntime() runtimeSample {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	var s runtimeSample
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = samples[2].Value.Uint64()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.heapBytes = m.HeapAlloc
	return s
}

// runtimeDelta is the runtime's cost over a measured phase.
type runtimeDelta struct {
	gcCPUFrac   float64 // GC CPU seconds over all CPU seconds available
	heapMBEnd   float64
	allocMBPerS float64
}

func (s runtimeSample) since(before runtimeSample, wall time.Duration) runtimeDelta {
	var d runtimeDelta
	if cpu := s.totalCPU - before.totalCPU; cpu > 0 {
		d.gcCPUFrac = (s.gcCPU - before.gcCPU) / cpu
	}
	d.heapMBEnd = float64(s.heapBytes) / (1 << 20)
	if wall > 0 {
		d.allocMBPerS = float64(s.allocBytes-before.allocBytes) / (1 << 20) / wall.Seconds()
	}
	return d
}

func (d runtimeDelta) metrics() []metric {
	return []metric{
		{Name: "rt.gc_cpu_frac", Value: d.gcCPUFrac, Unit: "ratio"},
		{Name: "rt.heap_mb_end", Value: d.heapMBEnd, Unit: "MB"},
		{Name: "rt.alloc_mb_per_s", Value: d.allocMBPerS, Unit: "MB/s"},
	}
}

// roundStages are the program's pipeline spans under one "interval" span.
var roundStages = []string{"fit", "allocate", "place", "deploy"}

// roundMetrics turns a traced run's spans into the per-round breakdown:
// the median duration of each pipeline stage, what is left of the round
// outside them, how much of the round named spans account for, and how much
// late rounds cost relative to early ones.
//
// A round is the harness's Daemon.Step span where the harness drives the
// rounds itself, so "other" includes the arrival drain, the WAL round
// commit and the cluster publish that surround the program's interval span;
// where the program drives them (sim.Run, Daemon.Run) it is the interval
// span.
func roundMetrics(spans []span) []metric {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	stage := make(map[int64]map[string]float64) // interval id → stage → ms
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok || p.Name != "interval" {
			continue
		}
		if stage[p.ID] == nil {
			stage[p.ID] = make(map[string]float64)
		}
		stage[p.ID][s.Name] += float64(s.dur()) / 1e6
	}
	per := make(map[string][]float64)
	var roundMs, other []float64
	var named, total float64
	for _, s := range spans { // spans are in start order within a trace
		if s.Name != "interval" {
			continue
		}
		outer := s
		if p, ok := byID[s.Parent]; ok && p.Name == "Daemon.Step" {
			outer = p
		}
		whole := float64(outer.dur()) / 1e6
		var staged float64
		for _, name := range roundStages {
			v := stage[s.ID][name]
			per[name] = append(per[name], v)
			staged += v
		}
		roundMs = append(roundMs, whole)
		other = append(other, whole-staged)
		named += staged
		total += whole
	}
	out := make([]metric, 0, len(roundStages)+3)
	for _, name := range roundStages {
		out = append(out, metric{Name: "round." + name + "_ms", Value: median(per[name]), Unit: "ms", N: len(per[name])})
	}
	out = append(out, metric{Name: "round.other_ms", Value: median(other), Unit: "ms", N: len(other)})
	frac := 0.0
	if total > 0 {
		frac = named / total
	}
	out = append(out, metric{Name: "round.named_frac", Value: frac, Unit: "ratio", N: len(roundMs)})
	out = append(out, metric{Name: "round.growth", Value: roundGrowth(roundMs), Unit: "ratio", N: len(roundMs)})
	return out
}

// roundGrowth is the median of the last tenth of the rounds over the median
// of the second tenth (the first tenth still holds start-up rounds): how
// much a round's cost grew as the jobs' loss histories did.
func roundGrowth(roundMs []float64) float64 {
	n := len(roundMs)
	w := n / 10
	if w < 1 {
		return 1
	}
	early := median(roundMs[w : 2*w])
	late := median(roundMs[n-w:])
	if early <= 0 {
		return 1
	}
	return late / early
}
