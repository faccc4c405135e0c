package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optimus/internal/cluster"
	"optimus/internal/workload"
)

// TestClusterEncodeLargeConcurrent is the copy-then-encode regression test:
// GET /v1/cluster over a 10k-node cluster must serve (and JSON-encode) a
// consistent snapshot while scheduling rounds race it. Before the snapshot
// rewrite this held the daemon mutex across marshaling 10k node maps; under
// -race this test pins the new lock-free path.
func TestClusterEncodeLargeConcurrent(t *testing.T) {
	// The paper testbed padded with empty nodes to 10k: every node is
	// encoded, but only the testbed's 13 nodes can host tasks. Over 10k
	// schedulable nodes the allocator grants uncapped async jobs tens of
	// thousands of tasks each. The round kernel's headroom bound skips the
	// shrink steps that ask for more than the cluster has free, but not a
	// grant that fits the bound and still fails the greedy placer: a lone
	// ds2 job's 25,345 PS + 20,991 workers on 10k 16-CPU nodes is packable,
	// yet greedyBalanced fails it, and each shrink step then costs a
	// kernel call (see TestWideRoundsSkipUnpackableRetries). This
	// test is about racing cluster encodes against rounds, not that cliff.
	c := cluster.Testbed()
	for i := c.Len(); i < 10000; i++ {
		if err := c.AddNode(cluster.NewNode(fmt.Sprintf("empty-%d", i), cluster.Resources{})); err != nil {
			t.Fatal(err)
		}
	}
	d, err := New(Config{Cluster: c, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// All eight submits land before the first round, so both rounds
	// schedule the same job set rather than whichever submits won the race.
	var wgSubmit sync.WaitGroup
	for i := 0; i < 8; i++ {
		wgSubmit.Add(1)
		go func() {
			defer wgSubmit.Done()
			body := `{"model":"ds2","mode":"async","downscale":0.2}`
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wgSubmit.Wait()

	// Eight readers race two full scheduling rounds: each round republishes
	// the 10k-node cluster snapshot mid-read.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				resp, err := http.Get(srv.URL + "/v1/cluster")
				if err != nil {
					t.Errorf("cluster: %v", err)
					return
				}
				var st ClusterStatus
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Errorf("decode cluster: %v", err)
				}
				resp.Body.Close()
				if len(st.Nodes) != 10000 {
					t.Errorf("cluster snapshot has %d nodes, want 10000", len(st.Nodes))
				}
			}
		}()
	}
	d.Step()
	d.Step()
	wg.Wait()
}

// sseWriter is an http.ResponseWriter for driving handleEvents directly.
// Each Write waits until release is closed and then goes to out (nil out
// fails the write, as a closed connection does). The first Write closes
// entered; a Write that begins with last closes reached.
type sseWriter struct {
	release, entered, reached chan struct{}
	last                      string
	out                       io.Writer
	enter, reach              sync.Once
}

func newSSEWriter(out io.Writer, last string) *sseWriter {
	return &sseWriter{release: make(chan struct{}), entered: make(chan struct{}),
		reached: make(chan struct{}), out: out, last: last}
}

func (w *sseWriter) Header() http.Header { return http.Header{} }
func (w *sseWriter) WriteHeader(int)     {}
func (w *sseWriter) Flush()              {}
func (w *sseWriter) Write(p []byte) (int, error) {
	w.enter.Do(func() { close(w.entered) })
	<-w.release
	if w.out == nil {
		return 0, io.ErrClosedPipe
	}
	n, err := w.out.Write(p)
	if w.last != "" && strings.HasPrefix(string(p), w.last) {
		w.reach.Do(func() { close(w.reached) })
	}
	return n, err
}

// readSSEIDs sends the id of every event on an SSE body, in stream order,
// until the body ends.
func readSSEIDs(body io.Reader, ids chan<- int64) {
	defer close(ids)
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		if id, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
			seq, _ := strconv.ParseInt(id, 10, 64)
			ids <- seq
		}
	}
}

// TestSSESlowSubscriber: a /v1/events handler stalled in a write must not
// delay publish or the healthy subscribers, which see every event in order.
// Once the stalled one writes again, it announces the exact number of events
// the ring overwrote meanwhile and carries on from the oldest resident one.
func TestSSESlowSubscriber(t *testing.T) {
	d, srv := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ev := Event{Type: EventSubmitted, Job: 1}

	// The stalled handler reads event 1 and blocks writing it.
	const total = 3 * eventBuffer
	d.bus.publish(ev)
	var stalledOut bytes.Buffer
	stalled := newSSEWriter(&stalledOut, fmt.Sprintf("id: %d\n", total))
	stalledDone := make(chan struct{})
	go func() {
		defer close(stalledDone)
		d.handleEvents(stalled, httptest.NewRequest("GET", "/v1/events", nil).WithContext(ctx))
	}()
	<-stalled.entered

	healthy := make([]chan int64, 2)
	for i := range healthy {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/events", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		// Room for every id published between two catch-ups, so the
		// reader never waits on this test.
		healthy[i] = make(chan int64, eventBuffer)
		go readSSEIDs(resp.Body, healthy[i])
	}
	next := []int64{1, 1} // each healthy subscriber's next expected id
	// catchUp requires each healthy subscriber's next ids to run on,
	// without a gap or a repeat, through seq.
	catchUp := func(seq int64) {
		for i, ids := range healthy {
			for next[i] <= seq {
				select {
				case got, ok := <-ids:
					if !ok || got != next[i] {
						t.Fatalf("healthy subscriber %d read id %d (open %v), want %d", i, got, ok, next[i])
					}
					next[i]++
				case <-time.After(10 * time.Second):
					t.Fatalf("healthy subscriber %d stuck before id %d", i, next[i])
				}
			}
		}
	}
	// Publish in quarter-ring batches and let the healthy subscribers catch
	// up after each one, so only the stalled subscriber can fall behind the
	// ring. That all of this completes while the stalled handler still sits
	// in its first Write shows publish never waits on it.
	for seq := int64(2); seq <= total; seq++ {
		d.bus.publish(ev)
		if seq%(eventBuffer/4) == 0 {
			catchUp(seq)
		}
	}
	if got := d.bus.dropped.Load(); got != 0 {
		t.Fatalf("%d events dropped before the stalled subscriber read again", got)
	}

	close(stalled.release)
	select {
	case <-stalled.reached:
	case <-time.After(10 * time.Second):
		t.Fatal("released subscriber never reached the last event")
	}
	cancel()
	<-stalledDone
	lost := int64(total - eventBuffer - 1) // events 2 .. total-eventBuffer
	want := "id: 1\n"
	if out := stalledOut.String(); !strings.HasPrefix(out, want) {
		t.Fatalf("stalled stream starts %.40q, want %q", out, want)
	}
	checkSSETail(t, stalledOut.String(), lost, total-eventBuffer+1, total)
	if got := d.bus.dropped.Load(); got != lost {
		t.Fatalf("optimusd_sse_dropped_total source reads %d, want %d", got, lost)
	}
}

// checkSSETail requires an SSE stream to hold exactly one "dropped" comment,
// for lost events, and after it the ids from through to, each once and in
// order.
func checkSSETail(t *testing.T, stream string, lost, from, to int64) {
	t.Helper()
	comment := fmt.Sprintf(": dropped %d events\n\n", lost)
	if n := strings.Count(stream, ": dropped "); n != 1 || !strings.Contains(stream, comment) {
		t.Fatalf("stream has %d dropped comments, want one %q", n, comment)
	}
	_, tail, _ := strings.Cut(stream, comment)
	want := from
	for _, line := range strings.Split(tail, "\n") {
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			if id != fmt.Sprint(want) {
				t.Fatalf("after the dropped comment: id %s, want %d", id, want)
			}
			want++
		}
	}
	if want != to+1 {
		t.Fatalf("stream ends before id %d", want)
	}
}

// TestSSEDroppedComment: a subscriber whose cursor is more than the ring
// behind gets one ": dropped N events" comment with the exact N over HTTP,
// then every resident event and the live ones after it, in order and once
// each, and /metrics counts the N.
func TestSSEDroppedComment(t *testing.T) {
	d, srv := testServer(t)
	const since, more = 5, 10
	head := int64(eventBuffer + more)
	for i := int64(0); i < head; i++ {
		d.bus.publish(Event{Type: EventSubmitted, Job: 1})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/events?since=%d", srv.URL, since), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	const live = 3
	for i := 0; i < live; i++ {
		d.bus.publish(Event{Type: EventSubmitted, Job: 1})
	}
	// Read through the last live event's blank line, then stop.
	var stream strings.Builder
	last := fmt.Sprintf("id: %d", head+live)
	sc := bufio.NewScanner(resp.Body)
	for sawLast := false; sc.Scan(); {
		stream.WriteString(sc.Text() + "\n")
		sawLast = sawLast || sc.Text() == last
		if sawLast && sc.Text() == "" {
			break
		}
	}
	lost := head - eventBuffer - since // ids since+1 .. head-eventBuffer
	checkSSETail(t, stream.String(), lost, head-eventBuffer+1, head+live)
	if m := metricSamples(t, d); m["optimusd_sse_dropped_total"] != fmt.Sprint(lost) {
		t.Fatalf("optimusd_sse_dropped_total = %q, want %d", m["optimusd_sse_dropped_total"], lost)
	}
}

// TestSSERestartedCursor: a Last-Event-ID from an earlier process, above
// this one's head, restarts the stream at the oldest event rather than
// waiting silently until the new sequences pass the old cursor.
func TestSSERestartedCursor(t *testing.T) {
	d, srv := testServer(t)
	for i := 0; i < 3; i++ {
		d.bus.publish(Event{Type: EventSubmitted, Job: i + 1})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/events?since=100", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var restarted bool
	var ids []string
	for len(ids) < 3 && sc.Scan() {
		line := sc.Text()
		restarted = restarted || line == ": stream restarted at 1"
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			ids = append(ids, id)
		}
	}
	if got := strings.Join(ids, ","); got != "1,2,3" || !restarted {
		t.Fatalf("ids %q (restart comment %v), want 1,2,3 after the comment", got, restarted)
	}
}

// TestEventPublishAllocFree: with no subscriber waiting, publish stores into
// the ring and allocates nothing.
func TestEventPublishAllocFree(t *testing.T) {
	bus := newEventBus(eventBuffer, nil)
	ev := Event{Type: EventScaled, Job: 7, Detail: "1ps/4w -> 2ps/8w"}
	if n := testing.AllocsPerRun(1000, func() { bus.publish(ev) }); n != 0 {
		t.Fatalf("publish: %.1f allocs/op, want 0", n)
	}
}

// TestSSESlowSubscriberHTTP drives the same property through the HTTP
// handler: a stalled SSE connection must not stall the scheduling loop or a
// healthy subscriber, and the daemon's dropped-event counter must surface
// on /metrics.
func TestSSESlowSubscriberHTTP(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	// Stalled subscriber: connects, never reads.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/events", nil)
	stalled, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Body.Close()

	// Generate far more events than the stalled subscriber's queue + the
	// kernel socket buffers could absorb, via direct bus publishes.
	const total = 20000
	doneTick := make(chan struct{})
	go func() {
		defer close(doneTick)
		for i := 0; i < total; i++ {
			d.publish(Event{Type: EventSubmitted, Job: i + 1})
		}
	}()
	select {
	case <-doneTick:
	case <-time.After(30 * time.Second):
		t.Fatal("publishing stalled behind a slow SSE subscriber")
	}

	// A fresh subscriber must still connect and see new events promptly.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	req2, _ := http.NewRequestWithContext(ctx2, http.MethodGet,
		fmt.Sprintf("%s/v1/events?since=%d", srv.URL, total), nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	go d.publish(Event{Type: EventSubmitted, Job: total + 1})
	sc := bufio.NewScanner(resp2.Body)
	sawLive := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "id: ") {
			sawLive = true
			break
		}
	}
	if !sawLive {
		t.Fatal("healthy subscriber saw no live events while another subscriber was stalled")
	}
}

// TestSnapshotUnderConcurrentLoad is the sharded-registry equivalence test:
// a graceful-shutdown snapshot taken while submits, cancels and scheduling
// rounds are all in flight must restore into a daemon whose fitted-model
// state round-trips byte-identically.
func TestSnapshotUnderConcurrentLoad(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed(), Seed: 17})
	if err != nil {
		t.Fatal(err)
	}

	// Warm up some fitted state.
	for i := 0; i < 6; i++ {
		mode := "async"
		if i%2 == 1 {
			mode = "sync"
		}
		req, err := DecodeSubmit([]byte(fmt.Sprintf(
			`{"model":"resnext-110","mode":%q,"threshold":0.05,"downscale":0.05}`, mode)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		d.Step()
	}

	// Concurrent churn while the snapshot is written.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d.Step()
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req, _ := DecodeSubmit([]byte(
				`{"model":"resnet-50","mode":"async","threshold":0.05,"downscale":0.05}`))
			if id, err := d.Submit(req); err == nil && rng.Intn(3) == 0 {
				_ = d.Cancel(id)
			}
		}
	}()

	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	d2, err := New(Config{Cluster: cluster.Testbed(), Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Round-trip: re-snapshotting the restored daemon must preserve every
	// job's fitted-model state byte-for-byte (progress, loss observations,
	// speed samples), modulo the documented Running→Waiting deployment reset.
	var buf2 bytes.Buffer
	if err := d2.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	var s1, s2 Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf2.Bytes(), &s2); err != nil {
		t.Fatal(err)
	}
	if len(s1.Jobs) != len(s2.Jobs) {
		t.Fatalf("restored snapshot has %d jobs, original %d", len(s2.Jobs), len(s1.Jobs))
	}
	if s1.SimTime != s2.SimTime || s1.Rounds != s2.Rounds || s1.NextID != s2.NextID {
		t.Fatalf("header drift: %v/%v/%v vs %v/%v/%v",
			s1.SimTime, s1.Rounds, s1.NextID, s2.SimTime, s2.Rounds, s2.NextID)
	}
	for i := range s1.Jobs {
		a, b := s1.Jobs[i], s2.Jobs[i]
		if a.State == StateRunning { // documented restore transform
			a.State = StateWaiting
			a.Alloc = s2.Jobs[i].Alloc
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("job %d state not byte-identical after restore:\n  before: %s\n  after:  %s",
				a.ID, ja, jb)
		}
	}
	// And the serving path agrees with the engine state.
	for _, js := range s1.Jobs {
		st, err := d2.Status(js.ID)
		if err != nil {
			t.Fatalf("status %d after restore: %v", js.ID, err)
		}
		if st.ProgressEpochs != js.Progress {
			t.Fatalf("job %d progress %g after restore, want %g", js.ID, st.ProgressEpochs, js.Progress)
		}
	}
}

// TestOpenLoop1000Clients is the make-race acceptance load: ≥1000 concurrent
// open-loop clients (each firing its operations at intended times, never
// gated on responses) against the sharded daemon with the scheduler loop
// running. Mirrors `optimusd-load -duration -mix` in-process so the race
// detector sees every interleaving.
func TestOpenLoop1000Clients(t *testing.T) {
	const nClients = 1000
	d, err := New(Config{Cluster: cluster.Testbed(), Seed: 23, MaxJobs: 4 * nClients})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

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
				d.Step()
			}
		}
	}()

	// Seed the keyspace.
	seedReq, _ := DecodeSubmit([]byte(`{"model":"resnext-110","mode":"async","downscale":0.2}`))
	if _, err := d.Submit(seedReq); err != nil {
		t.Fatal(err)
	}

	var maxID atomic.Int64
	maxID.Store(1)
	var errs atomic.Int64
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 128},
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < nClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			kd, _ := workload.NewKeyDist("zipfian", 0)
			const opsPerClient = 3
			for i := 0; i < opsPerClient; i++ {
				// Open-loop pacing: fire at the intended time whether or not
				// the previous response came back.
				intended := start.Add(time.Duration(rng.Int63n(int64(500 * time.Millisecond))))
				if s := time.Until(intended); s > 0 {
					time.Sleep(s) // sleep: open-loop pacing to the intended send time
				}
				switch r := rng.Float64(); {
				case r < 0.10: // submit
					resp, err := client.Post(srv.URL+"/v1/jobs", "application/json",
						strings.NewReader(`{"model":"resnet-50","mode":"async","downscale":0.2}`))
					if err != nil {
						errs.Add(1)
						continue
					}
					var created struct {
						ID int64 `json:"id"`
					}
					if resp.StatusCode == http.StatusCreated &&
						json.NewDecoder(resp.Body).Decode(&created) == nil {
						for {
							cur := maxID.Load()
							if created.ID <= cur || maxID.CompareAndSwap(cur, created.ID) {
								break
							}
						}
					} else if resp.StatusCode != http.StatusTooManyRequests {
						errs.Add(1)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				case r < 0.95: // status via zipfian key
					id := int64(kd.Draw(rng, int(maxID.Load()))) + 1
					resp, err := client.Get(fmt.Sprintf("%s/v1/jobs/%d", srv.URL, id))
					if err != nil {
						errs.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					// 404 is legal: IDs are assigned before the registry
					// insert, so a racing reader can probe an ID a hair
					// before its submit's insert lands.
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						errs.Add(1)
					}
				default: // delete
					id := int64(kd.Draw(rng, int(maxID.Load()))) + 1
					req, _ := http.NewRequest(http.MethodDelete,
						fmt.Sprintf("%s/v1/jobs/%d", srv.URL, id), nil)
					resp, err := client.Do(req)
					if err != nil {
						errs.Add(1)
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict &&
						resp.StatusCode != http.StatusNotFound {
						errs.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	wgStep.Wait()
	// A submit can land after the stepper's last round published the
	// cluster snapshot; one more round publishes every admitted job.
	d.Step()

	if n := errs.Load(); n > 0 {
		t.Fatalf("%d operations failed under 1000-client open-loop load", n)
	}
	if d.Cluster().Jobs != d.reg.len() {
		t.Fatalf("cluster snapshot jobs %d != registry %d", d.Cluster().Jobs, d.reg.len())
	}
}
