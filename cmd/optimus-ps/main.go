// Command optimus-ps runs a real parameter-server training job locally with
// the psys framework: synthetic data, SGD workers, push/pull over the chosen
// transport, live loss reporting, and a demonstration of §5's mechanisms —
// straggler detection/replacement and checkpoint-based elastic scaling.
//
// Usage:
//
//	optimus-ps -workers 3 -servers 2 -mode sync -steps 200
//	optimus-ps -transport tcp -scale-to 6x3 -straggle
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"optimus/internal/obs"
	"optimus/internal/psys"
	"optimus/internal/speedfit"
)

var lg = obs.NewLogger(os.Stderr, "optimus-ps", nil)

func main() {

	var (
		workers   = flag.Int("workers", 3, "initial worker count")
		servers   = flag.Int("servers", 2, "initial parameter-server count")
		modeStr   = flag.String("mode", "sync", "training mode: sync | async")
		transport = flag.String("transport", "local", "transport: local | tcp")
		steps     = flag.Int("steps", 200, "steps per phase")
		features  = flag.Int("features", 64, "model dimension")
		examples  = flag.Int("examples", 4000, "dataset size")
		batch     = flag.Int("batch", 32, "per-worker mini-batch size")
		lr        = flag.Float64("lr", 0.05, "learning rate")
		seed      = flag.Int64("seed", 1, "random seed")
		scaleTo   = flag.String("scale-to", "", "elastic rescale after phase 1, e.g. 6x3 (workers x servers)")
		straggle  = flag.Bool("straggle", false, "inject a straggler and let detection replace it")

		// Multi-process mode: run this binary as one node of a distributed
		// job (coordinator, parameter server or worker), so the full
		// training topology spans real OS processes.
		role      = flag.String("role", "", "distributed role: coordinator | server | worker (empty = single-process demo)")
		coordAddr = flag.String("coord", "127.0.0.1:7070", "coordinator address (distributed mode)")
		listen    = flag.String("listen", "127.0.0.1:0", "serve address (server role)")
		modelSpec = flag.String("model", "linreg:64", "model spec for distributed mode: linreg:F | logreg:F | mlp:FxH")
	)
	flag.Parse()

	if *role != "" {
		runDistributed(*role, *coordAddr, *listen, *modelSpec, *modeStr,
			*workers, *servers, *batch, *lr, *seed, *examples, *steps)
		return
	}

	mode := speedfit.Sync
	if *modeStr == "async" {
		mode = speedfit.Async
	} else if *modeStr != "sync" {
		lg.Fatalf("unknown mode %q", *modeStr)
	}
	tr := psys.TransportLocal
	if *transport == "tcp" {
		tr = psys.TransportTCP
	} else if *transport != "local" {
		lg.Fatalf("unknown transport %q", *transport)
	}

	data, _, err := psys.SyntheticRegression(*examples, *features, 0.01, *seed)
	if err != nil {
		lg.Fatalf("%v", err)
	}
	cfg := psys.JobConfig{
		Model:     psys.LinearRegression{Features: *features},
		Data:      data,
		Mode:      mode,
		Workers:   *workers,
		Servers:   *servers,
		BatchSize: *batch,
		LR:        *lr,
		Transport: tr,
		Seed:      *seed,
	}
	if *straggle {
		cfg.WorkerDelays = map[int]time.Duration{0: 8 * time.Millisecond}
		lg.Infof("injecting straggler: worker 0 delayed 8ms/step")
	}

	job, err := psys.StartJob(cfg)
	if err != nil {
		lg.Fatalf("%v", err)
	}
	defer job.Stop()
	lg.Infof("phase 1: %d workers, %d servers, %s, %s transport",
		job.Workers(), job.Servers(), mode, tr)

	runPhase := func(j *psys.Job, n int) []psys.StepStat {
		start := time.Now()
		stats, err := j.RunSteps(n)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		loss, err := j.Loss()
		if err != nil {
			lg.Fatalf("%v", err)
		}
		elapsed := time.Since(start)
		rate := float64(n) / elapsed.Seconds()
		lg.Infof("  %d steps in %v (%.0f steps/s/worker), full-data loss %.6f",
			n, elapsed.Round(time.Millisecond), rate, loss)
		return stats
	}

	stats := runPhase(job, *steps)

	if *straggle {
		if s := psys.DetectStragglers(stats); len(s) > 0 {
			lg.Infof("stragglers detected: %v — replacing (§5.2)", s)
			for _, id := range s {
				if err := job.ReplaceWorker(id); err != nil {
					lg.Fatalf("%v", err)
				}
			}
			runPhase(job, *steps)
		} else {
			lg.Infof("no stragglers detected")
		}
	}

	if *scaleTo != "" {
		var w, p int
		if _, err := fmt.Sscanf(strings.ToLower(*scaleTo), "%dx%d", &w, &p); err != nil {
			lg.Fatalf("bad -scale-to %q (want WxP, e.g. 6x3)", *scaleTo)
		}
		ckpt := filepath.Join(os.TempDir(), fmt.Sprintf("optimus-ps-%d.ckpt", os.Getpid()))
		defer os.Remove(ckpt)
		lg.Infof("elastic scaling to %d workers / %d servers via checkpoint %s (§5.4)", w, p, ckpt)
		scaled, err := psys.Scale(job, w, p, ckpt)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		defer scaled.Stop()
		lg.Infof("phase 2: resumed at round %d, chunk imbalance %d examples",
			scaled.Rounds(), scaled.ChunkImbalance())
		runPhase(scaled, *steps)
	}
	lg.Infof("done")
}

// runDistributed runs one node of a multi-process training job.
func runDistributed(role, coordAddr, listen, modelSpec, modeStr string,
	workers, servers, batch int, lr float64, seed int64, examples, steps int) {
	mode := speedfit.Sync
	if modeStr == "async" {
		mode = speedfit.Async
	}
	switch role {
	case "coordinator":
		coord, err := psys.StartCoordinator(psys.DistSpec{
			ModelSpec: modelSpec, Mode: mode,
			Workers: workers, Servers: servers, BatchSize: batch,
			LR: lr, Seed: seed, Examples: examples, Noise: 0.01,
		}, coordAddr)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		defer coord.Close()
		lg.Infof("coordinator on %s: expecting %d servers, %d workers",
			coord.Addr(), servers, workers)
		// Report progress until every worker has reported done. Closing
		// then waits for the servers, which see the same status and exit.
		want := workers * steps
		for {
			st := coord.Status()
			lg.Infof("servers=%d workers=%d reports=%d/%d last-loss=%.6f",
				st.ServersReady, st.WorkersJoined, st.Reports, want, st.LastLoss)
			if st.Done {
				lg.Infof("all workers done")
				return
			}
			time.Sleep(500 * time.Millisecond)
		}
	case "server":
		s, err := psys.RunDistServer(coordAddr, listen)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		lg.Infof("parameter server %d serving on %s until every worker is done", s.Index, s.Addr())
		err = s.Wait(context.Background())
		s.Close()
		if err != nil {
			lg.Fatalf("%v", err)
		}
		lg.Infof("parameter server %d done", s.Index)
	case "worker":
		w, err := psys.RunDistWorker(coordAddr)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		defer w.Close()
		lg.Infof("worker %d training %d steps", w.ID, steps)
		loss, err := w.Steps(steps)
		if err != nil {
			lg.Fatalf("%v", err)
		}
		lg.Infof("worker %d done, final batch loss %.6f", w.ID, loss)
	default:
		lg.Fatalf("unknown role %q (want coordinator|server|worker)", role)
	}
}
