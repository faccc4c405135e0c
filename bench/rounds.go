package main

import (
	"fmt"
	"time"

	"optimus/internal/core"
	"optimus/internal/wal"
)

// roundsShape sizes a rounds-* workload: live jobs held constant on a
// uniform cluster for a fixed number of harness-driven Daemon.Step calls.
type roundsShape struct {
	jobs, nodes int
	rounds      int // at baseSeconds, over all beds
	// beds is how many independent daemons (each on its own sub-seed) share
	// the rounds. One bed sees a round's cost grow over the whole run; more
	// beds average out what one seed's job order does to placement.
	beds int
	// execs is how many times an end-to-end run executes every bed's rounds,
	// identically; a round reports the fastest of its executions.
	execs int
	// recovery ends the run with a standby's takeover: Daemon.ReplayWAL of the
	// log the rounds just wrote into a fresh daemon, checked against the live
	// one (reads of the WAL beside the writes the rounds did).
	recovery bool
}

var (
	// Four jobs per node: estimator refits and the status republish dominate
	// a round, placement is a few percent. The cost of a round grows 4x over
	// 100 rounds as loss histories lengthen, so this is one long bed. ~5 s
	// per execution and ~4 s of recovery at the baseline.
	denseShape = roundsShape{jobs: 320, nodes: 80, rounds: 100, beds: 1, execs: 3, recovery: true}
	// Three nodes per job: uncapped async jobs get allocations that do not
	// pack, so core.Place and its shrink-retry dominate. A round's cost barely
	// grows but depends on the job order (p90 moved 17 % between seeds with
	// one bed), so the rounds are split over four seeds. ~7 s per execution
	// at the baseline.
	wideShape = roundsShape{jobs: 150, nodes: 500, rounds: 100, beds: 4, execs: 3}
)

const warmupRounds = 5

// subSeed derives the seed of a run's i-th independent replica.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// withSeed is e for one replica.
func (e *env) withSeed(seed int64) *env {
	c := *e
	c.seed = seed
	return &c
}

// liveBed is a bed with its jobs admitted and warm-up rounds run: the
// set-up of rounds-* and of the recovery probe. traces numbers the Step spans.
func liveBed(e *env, jobs, nodes int, fsync wal.FsyncPolicy, traces *int64) (*bed, []stepRef, error) {
	b, err := newBed(e, nodes, fsync, nil)
	if err != nil {
		return nil, nil, err
	}
	if _, err := b.topUp(jobs); err != nil {
		b.close()
		return nil, nil, err
	}
	var steps []stepRef
	for r := 0; r < warmupRounds; r++ {
		*traces++
		steps = append(steps, b.step(e.rec, *traces))
		if _, err := b.topUp(jobs); err != nil {
			b.close()
			return nil, nil, err
		}
	}
	return b, steps, nil
}

// step runs one traced-or-not Daemon.Step.
func (b *bed) step(rec *recorder, trace int64) stepRef {
	sp := rec.begin(0, trace, "serve", "Daemon.Step")
	t0 := time.Now()
	b.d.Step()
	t1 := time.Now()
	rec.end(sp)
	return stepRef{id: sp, trace: trace, start: rec.since(t0), end: rec.since(t1), dur: t1.Sub(t0)}
}

// roundsRun is what driving one bed for some rounds measured.
type roundsRun struct {
	stepMs   []float64
	cycleS   []float64 // Step plus the top-up after it
	shareSum float64   // allocated-CPU share summed over the rounds run
	steps    []stepRef
	undone   int // rounds cut by the deadline
	admitted int
}

// driveRounds is the measured loop of rounds-* (and how the recovery probe
// writes its log): n rounds, each a timed Step, an output check on the
// published cluster and a timed top-up back to the live-job target.
func driveRounds(e *env, b *bed, out *outcome, jobs, n int, deadline time.Time, traces *int64) (*roundsRun, error) {
	run := &roundsRun{}
	for r := 0; r < n; r++ {
		if time.Now().After(deadline) {
			run.undone = n - r
			break
		}
		*traces++
		ref := b.step(e.rec, *traces)
		run.steps = append(run.steps, ref)
		run.stepMs = append(run.stepMs, ms(ref.dur))

		cs := b.d.Cluster()
		if err := checkCapacity(cs); err != nil {
			out.problemf("%v", err)
		}
		run.shareSum += cs.ClusterShare

		sp := e.rec.begin(0, *traces, "serve", "Daemon.Submit(top-up)")
		t0 := time.Now()
		k, err := b.topUp(jobs)
		run.cycleS = append(run.cycleS, ref.dur.Seconds()+time.Since(t0).Seconds())
		e.rec.end(sp)
		if err != nil {
			return nil, err
		}
		run.admitted += k
	}
	return run, nil
}

func runRounds(e *env, shape roundsShape) (*outcome, error) {
	out := newOutcome()
	jobs, nodes := e.sized(shape.jobs, 4), e.sized(shape.nodes, 2)
	perBed := e.count(shape.rounds, 10*shape.beds) / shape.beds
	execs := e.execs(shape.execs)

	// bedOutcome is what one bed's rounds decided: the same on every
	// execution of a seed, or the daemon is not deterministic.
	type bedOutcome struct {
		shareSum float64
		admitted int
	}
	var (
		setups []float64
		// stepMs[x] and cycleS[x] hold execution x's rounds, bed after bed:
		// the Step alone, and Step plus the top-up that follows it.
		stepMs          = make([][]float64, execs)
		cycleS          = make([][]float64, execs)
		decided         = make([]bedOutcome, shape.beds)
		recoverS        []float64
		replayedRecords int
		walRecords      int
		traces          int64
	)
	deadline := e.deadline(time.Now())
	// Executions outermost: two executions of one bed's rounds lie a whole
	// pass over the beds apart, further than a slow spell of the host lasts.
	for x := 0; x < execs; x++ {
		for i := 0; i < shape.beds; i++ {
			be := e.withSeed(subSeed(e.seed, i))
			// setup_s is a median of at least e.setups set-ups; a shape with
			// fewer beds and executions repeats its first set-up to get there.
			repeats := 1
			if x == 0 && i == 0 {
				repeats += max(0, e.setups-shape.beds*execs)
			}
			var b *bed
			var warm []stepRef
			for r := 0; r < repeats; r++ {
				if b != nil {
					if err := b.close(); err != nil {
						return nil, err
					}
				}
				t0 := time.Now()
				var err error
				if b, warm, err = liveBed(be, jobs, nodes, workloadFsync, &traces); err != nil {
					return nil, err
				}
				setups = append(setups, time.Since(t0).Seconds())
			}

			var before core.IncrStats
			if s := b.d.Cluster().Scheduler; s != nil {
				before = *s
			}
			rtBefore, start := readRuntime(), time.Now()
			run, err := driveRounds(be, b, out, jobs, perBed, deadline, &traces)
			if err != nil {
				b.close()
				return nil, err
			}
			out.rt = readRuntime().since(rtBefore, time.Since(start)) // the last bed's; every bed does the same kind of work
			if s := b.d.Cluster().Scheduler; s != nil {
				out.incr.add(incrSince(before, *s, len(run.stepMs)))
			}
			if e.traced() {
				if err := b.foldDaemonTrace(e.rec, append(warm, run.steps...), 0); err != nil {
					b.close()
					return nil, err
				}
			}
			out.attempted += perBed
			out.failed += run.undone
			stepMs[x] = append(stepMs[x], run.stepMs...)
			cycleS[x] = append(cycleS[x], run.cycleS...)
			if got := (bedOutcome{run.shareSum, run.admitted}); x == 0 {
				decided[i] = got
				if ws, ok := b.d.WALStats(); ok {
					walRecords += int(ws.Appends)
				}
			} else if run.undone == 0 && got != decided[i] {
				out.problemf("execution %d of bed %d admitted %d jobs at a summed share of %v, the first %d at %v",
					x+1, i, got.admitted, got.shareSum, decided[i].admitted, decided[i].shareSum)
			}
			if shape.recovery && x == execs-1 && run.undone == 0 {
				traces++
				rc, err := recoverFrom(be, b, nodes, out, traces)
				if err != nil {
					b.close()
					return nil, err
				}
				recoverS = append(recoverS, rc.seconds)
				replayedRecords += rc.records
			}
			if err := b.close(); err != nil {
				return nil, err
			}
		}
	}
	out.set("setup_s", median(setups), "s", len(setups))
	if out.failed > 0 {
		out.problemf("%d of %d rounds not run before the deadline", out.failed, out.attempted)
	}
	steps, cycles := fastest(stepMs), fastest(cycleS)
	if len(steps) == 0 {
		return nil, fmt.Errorf("%s: no round ran", e.workload)
	}

	out.latency(steps)
	// Throughput of the drive loop: rounds per second of Step plus the
	// admissions that keep the live set full.
	out.set("ops_per_s", float64(len(cycles))/sum(cycles), "1/s", len(cycles))
	var shareSum float64
	admitted := 0
	for _, d := range decided {
		shareSum += d.shareSum
		admitted += d.admitted
	}
	out.set("sched_quality", shareSum/float64(perBed*shape.beds), "ratio", perBed*shape.beds)
	out.add("executions", float64(execs), "count", 0)
	out.add("round_growth", roundGrowth(steps[:min(perBed, len(steps))]), "ratio", min(perBed, len(steps)))
	out.add("jobs_admitted", float64(admitted), "count", 0)
	out.add("wal_records", float64(walRecords), "count", 0)
	if len(recoverS) > 0 {
		out.add("recover_s", median(recoverS), "s", len(recoverS))
		out.add("recover_records_per_s", float64(replayedRecords)/sum(recoverS), "1/s", replayedRecords)
	}
	return out, nil
}
