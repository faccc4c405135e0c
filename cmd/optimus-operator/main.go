// Command optimus-operator runs the complete Optimus system against real
// components: training jobs on the psys parameter-server framework, §3
// models fitted from their live telemetry, the §4.1/§4.2 round (sim.Round)
// each interval, §5.4 checkpoint-based rescaling to the placed shape, and
// pod groups bound on the mini Kubernetes control plane as the round placed.
// It ends with each job's status and the per-node pod layout of the last
// cycle that had live pods.
//
// Usage:
//
//	optimus-operator -nodes 3 -jobs 3 -interval 300ms
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"slices"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/kube"
	"optimus/internal/operator"
	"optimus/internal/speedfit"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("optimus-operator: ")
	var (
		nodes    = flag.Int("nodes", 3, "cluster size")
		jobs     = flag.Int("jobs", 3, "jobs to submit")
		interval = flag.Duration("interval", 300*time.Millisecond,
			"scheduling interval (paper: 10 minutes; shrunk for the demo)")
		maxCycles   = flag.Int("max-cycles", 200, "stop after this many intervals")
		metricsAddr = flag.String("metrics-addr", "",
			"serve Prometheus metrics on this address (e.g. :9090); empty disables")
	)
	flag.Parse()

	api := kube.NewAPIServer()
	for i := 0; i < *nodes; i++ {
		err := api.RegisterNode(kube.Node{
			Name: fmt.Sprintf("node-%d", i),
			Capacity: cluster.Resources{
				cluster.CPU: 16, cluster.Memory: 64,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	op := operator.New(api, "/tmp")
	defer op.Shutdown()

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := op.WritePrometheus(w); err != nil {
				log.Printf("metrics export: %v", err)
			}
		})
		go func() {
			log.Printf("metrics on http://%s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	specs := []string{"linreg:24", "mlp:8x12", "logreg:16"}
	for id := 0; id < *jobs; id++ {
		mode := speedfit.Sync
		if id%2 == 1 {
			mode = speedfit.Async
		}
		err := op.Submit(operator.JobRequest{
			ID:        id,
			ModelSpec: specs[id%len(specs)],
			Examples:  1200,
			Noise:     0.01,
			Mode:      mode,
			BatchSize: 32,
			LR:        0.1,
			Seed:      int64(id + 1),
			Threshold: 0.02,
			PSRes:     cluster.Resources{cluster.CPU: 3, cluster.Memory: 8},
			WorkerRes: cluster.Resources{cluster.CPU: 5, cluster.Memory: 10},
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("submitted job %d (%s, %s)", id, specs[id%len(specs)], mode)
	}

	var layout []kube.Pod // the pods after the last cycle that had any
	for cycle := 1; cycle <= *maxCycles; cycle++ {
		time.Sleep(*interval)
		rep, err := op.Cycle()
		if err != nil {
			log.Fatal(err)
		}
		if len(rep.Resized) > 0 || len(rep.Completed) > 0 {
			log.Printf("cycle %d: active=%d resized=%v completed=%v bound=%d",
				cycle, rep.Active, rep.Resized, rep.Completed, rep.Bound)
		}
		if pods := api.ListPods(); len(pods) > 0 {
			layout = pods
		}
		if rep.Active == 0 && cycle > 1 {
			break
		}
	}
	for _, st := range op.Status() {
		log.Printf("job %d: completed=%v steps=%d final=(%dps,%dw) last-loss=%.5f",
			st.ID, st.Completed, st.Steps, st.PS, st.Workers, st.LastLoss)
	}
	// Theorem 1 puts each job's PS and workers on the fewest nodes, evenly.
	byNode := map[string][]string{}
	for _, p := range layout {
		node := p.NodeName
		if node == "" {
			node = "pending"
		}
		byNode[node] = append(byNode[node], p.Name) // ListPods sorts by name
	}
	nodeNames := make([]string, 0, len(byNode))
	for n := range byNode {
		nodeNames = append(nodeNames, n)
	}
	slices.Sort(nodeNames)
	log.Printf("pod layout of the last cycle with live pods:")
	for _, n := range nodeNames {
		log.Printf("  %s: %v", n, byNode[n])
	}
}
