package serve

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/obs"
	"optimus/internal/workload"
)

// This file is the serving-path before/after exhibit: the same
// submit+status traffic driven against (a) a single-mutex facade
// reproducing the pre-sharding daemon — every API call and the scheduler
// round serialized on one lock, JSON marshaled inside it — and (b) the
// sharded daemon. Each benchmark reports sustained ops/s and the p99
// latency (log-bucketed histogram) alongside ns/op, so one go-bench line
// carries the full exhibit.

// singleMutexServing is the executable reference spec of the old serving
// path: one global mutex across Submit, Status, Cluster and Step, with JSON
// encoding performed while the lock is held.
type singleMutexServing struct {
	mu sync.Mutex
	d  *Daemon
}

func (s *singleMutexServing) Submit(req SubmitRequest) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Submit(req)
}

func (s *singleMutexServing) Cancel(id int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Cancel(id)
}

func (s *singleMutexServing) Status(id int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.d.Status(id)
	if err != nil {
		return nil, err
	}
	return json.Marshal(st) // encode under the lock, like the old handler
}

func (s *singleMutexServing) Cluster() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return json.Marshal(s.d.Cluster())
}

func (s *singleMutexServing) Step() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.d.Step()
}

// servingOps abstracts the two implementations under benchmark.
type servingOps interface {
	Submit(SubmitRequest) (int, error)
	Cancel(int) error
	Status(int) ([]byte, error)
	Cluster() ([]byte, error)
	Step()
}

// shardedServing drives the daemon exactly as the HTTP handlers do:
// lock-free snapshot reads with the pre-encoded bytes.
type shardedServing struct{ d *Daemon }

func (s shardedServing) Submit(req SubmitRequest) (int, error) { return s.d.Submit(req) }
func (s shardedServing) Cancel(id int) error                   { return s.d.Cancel(id) }
func (s shardedServing) Status(id int) ([]byte, error) {
	j := s.d.reg.get(id)
	if j == nil {
		return nil, ErrNotFound
	}
	return j.status.Load().bytes(), nil
}
func (s shardedServing) Cluster() ([]byte, error) {
	return s.d.clusterSnap.Load().bytes(), nil
}
func (s shardedServing) Step() { s.d.Step() }

const benchPreJobs = 512

func newBenchDaemon(b *testing.B) *Daemon {
	b.Helper()
	d, err := New(Config{
		Cluster: cluster.Uniform(64,
			cluster.Resources{cluster.CPU: 16, cluster.Memory: 80, cluster.Bandwidth: 1}),
		Seed:    1,
		MaxJobs: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	req, err := DecodeSubmit([]byte(`{"model":"resnext-110","mode":"async","threshold":0.05,"downscale":0.2}`))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchPreJobs; i++ {
		if _, err := d.Submit(req); err != nil {
			b.Fatal(err)
		}
	}
	d.Step() // deploy the pre-jobs so statuses carry allocations
	return d
}

// benchServingMix runs the open-loop-shaped mix (95% status on zipfian keys,
// 5% submit+cancel churn) from parallel goroutines while a stepper fires a
// scheduling round every 5ms — the contended steady state the tick loop
// creates in production.
func benchServingMix(b *testing.B, s servingOps) {
	submitReq, err := DecodeSubmit([]byte(`{"model":"resnet-50","mode":"async","threshold":0.05,"downscale":0.2}`))
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wgStep sync.WaitGroup
	wgStep.Add(1)
	go func() {
		defer wgStep.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Step()
				time.Sleep(5 * time.Millisecond) // sleep: tick pacing of the background rounds
			}
		}
	}()

	var hist obs.Histogram
	var seed atomic.Int64
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		kd, _ := workload.NewKeyDist("zipfian", 0)
		lastID := 0
		for pb.Next() {
			t0 := time.Now()
			if rng.Float64() < 0.05 {
				id, err := s.Submit(submitReq)
				if err != nil {
					b.Error(err)
					return
				}
				if lastID != 0 {
					_ = s.Cancel(lastID) // keep the live set bounded
				}
				lastID = id
			} else {
				id := kd.Draw(rng, benchPreJobs) + 1
				if _, err := s.Status(id); err != nil {
					b.Error(err)
					return
				}
			}
			hist.Observe(time.Since(t0).Seconds())
		}
	})
	elapsed := time.Since(start)
	b.StopTimer()
	close(stop)
	wgStep.Wait()

	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
	b.ReportMetric(hist.Quantile(0.99)*1e3, "p99-ms")
}

func BenchmarkServingMixSingleMutex(b *testing.B) {
	d := newBenchDaemon(b)
	benchServingMix(b, &singleMutexServing{d: d})
}

func BenchmarkServingMixSharded(b *testing.B) {
	d := newBenchDaemon(b)
	benchServingMix(b, shardedServing{d: d})
}

// benchClusterRead measures GET /v1/cluster's payload production under the
// same 5ms stepper: the old path re-marshaled the whole node list under the
// daemon mutex per request; the new one serves the engine's cached bytes.
func benchClusterRead(b *testing.B, s servingOps) {
	stop := make(chan struct{})
	var wgStep sync.WaitGroup
	wgStep.Add(1)
	go func() {
		defer wgStep.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Step()
				time.Sleep(5 * time.Millisecond) // sleep: tick pacing of the background rounds
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			buf, err := s.Cluster()
			if err != nil || len(buf) == 0 {
				b.Errorf("cluster read: %v (%d bytes)", err, len(buf))
				return
			}
		}
	})
	b.StopTimer()
	close(stop)
	wgStep.Wait()
}

func BenchmarkServingClusterSingleMutex(b *testing.B) {
	d := newBenchDaemon(b)
	benchClusterRead(b, &singleMutexServing{d: d})
}

func BenchmarkServingClusterSharded(b *testing.B) {
	d := newBenchDaemon(b)
	benchClusterRead(b, shardedServing{d: d})
}

// BenchmarkServingSSEPublish measures event publication while four
// /v1/events handlers tail the ring and a fifth is stalled in a write that
// never returns. Publish stores into the ring and wakes the waiting
// handlers; it never touches a handler's connection, so the stalled one
// costs it nothing.
func BenchmarkServingSSEPublish(b *testing.B) {
	d := newBenchDaemon(b)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	serveSSE := func(w *sseWriter) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.handleEvents(w, httptest.NewRequest("GET", "/v1/events", nil).WithContext(ctx))
		}()
	}
	ev := Event{Type: EventScaled, Job: 7, Detail: "1ps/4w -> 2ps/8w"}
	d.bus.publish(ev)
	stalled := newSSEWriter(nil, "")
	serveSSE(stalled)
	<-stalled.entered
	for i := 0; i < 4; i++ {
		w := newSSEWriter(io.Discard, "")
		close(w.release)
		serveSSE(w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.bus.publish(ev)
	}
	b.StopTimer()
	b.ReportMetric(float64(d.bus.dropped.Load())/float64(b.N), "dropped/op")
	cancel()
	close(stalled.release)
	wg.Wait()
}
