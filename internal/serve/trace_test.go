package serve

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/obs"
	"optimus/internal/workload"
)

// tracedServer builds a daemon with tracing on plus its HTTP front end.
func tracedServer(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	d, err := New(Config{Cluster: cluster.Testbed(), Seed: 7, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return d, srv
}

func TestHTTPTraceEndpoint(t *testing.T) {
	d, srv := tracedServer(t)
	postJob(t, srv.URL, `{"model":"resnet-50","mode":"async","threshold":0.01}`)
	d.Step()
	d.Step()

	resp, err := http.Get(srv.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(body) {
		t.Fatalf("trace is not valid JSON:\n%s", body)
	}
	spans, err := obs.ReadChromeTrace(strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
	}
	if byName["interval"] != 2 {
		t.Errorf("interval spans = %d, want one per Step", byName["interval"])
	}
	for _, name := range []string{"fit", "allocate", "place", "deploy", "alloc-kernel", "place-kernel"} {
		if byName[name] == 0 {
			t.Errorf("no %q spans in %v", name, byName)
		}
	}
}

func TestHTTPExplainEndpoint(t *testing.T) {
	d, srv := tracedServer(t)
	postJob(t, srv.URL, `{"model":"resnet-50","mode":"async","threshold":0.01}`)
	d.Step()

	resp, err := http.Get(srv.URL + "/v1/jobs/1/explain")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status = %d", resp.StatusCode)
	}
	var ex ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
		t.Fatal(err)
	}
	if ex.Job != 1 || ex.State != StateRunning {
		t.Errorf("explain header %+v", ex)
	}
	if len(ex.Decisions) != 1 {
		t.Fatalf("%d decisions after one round, want 1", len(ex.Decisions))
	}
	// The deployed allocation can be smaller than the grant (the §4.2
	// fragmentation escape hatch shrinks unpackable allocations), never
	// larger.
	dec := ex.Decisions[0]
	if dec.PS != ex.Alloc.PS || dec.Workers != ex.Alloc.Workers ||
		dec.GrantPS < dec.PS || dec.GrantWorkers < dec.Workers {
		t.Errorf("decision grants %d/%d and places %d/%d, deployed allocation %+v",
			dec.GrantPS, dec.GrantWorkers, dec.PS, dec.Workers, ex.Alloc)
	}
	if dec.Round != 1 || dec.Servers == 0 || len(dec.Nodes) != dec.Servers || dec.Speed <= 0 {
		t.Errorf("degenerate decision %+v", dec)
	}

	// Unknown job → 404.
	resp2, err := http.Get(srv.URL + "/v1/jobs/999/explain")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job explain status = %d", resp2.StatusCode)
	}
}

// TestHTTPTraceDisabled pins the contract of an untraced daemon: both
// observability endpoints 404 and the scheduler records nothing.
func TestHTTPTraceDisabled(t *testing.T) {
	d, srv := testServer(t)
	postJob(t, srv.URL, `{"model":"resnet-50","mode":"async","threshold":0.01}`)
	d.Step()
	for _, path := range []string{"/v1/trace", "/v1/jobs/1/explain"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestHTTPMetricsHistograms checks that the latency histograms flow through
// /metrics once rounds and API requests have happened.
func TestHTTPMetricsHistograms(t *testing.T) {
	d, srv := testServer(t)
	postJob(t, srv.URL, `{"model":"resnet-50","mode":"async","threshold":0.01}`)
	d.Step()
	// The submit above went through the latency middleware already; fetch
	// metrics twice so the first scrape's own latency is also recorded.
	if _, err := http.Get(srv.URL + "/metrics"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE optimus_interval_duration_seconds histogram",
		"optimus_interval_duration_seconds_count 1",
		"# TYPE optimus_allocate_duration_seconds histogram",
		"# TYPE optimus_api_request_duration_seconds histogram",
		`optimus_api_request_duration_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSSEResumeExactlyOnce is the delivery-contract test for /v1/events: a
// client that disconnects mid-replay and resumes via Last-Event-ID must see
// every event exactly once across the two connections.
func TestSSEResumeExactlyOnce(t *testing.T) {
	d, srv := testServer(t)
	for i := 0; i < 4; i++ {
		postJob(t, srv.URL, `{"model":"resnet-50","mode":"async","threshold":0.01}`)
	}
	d.Step()
	d.Step()

	// Ground truth: everything currently in the bus ring.
	all, _ := d.bus.window(1, d.bus.ring.Head())
	if len(all) < 6 {
		t.Fatalf("only %d events published, test needs a longer history", len(all))
	}
	total := all[len(all)-1].Seq

	seen := make(map[int64]int)
	readIDs := func(body io.Reader, stopAfter int, stopAtSeq int64) int64 {
		scanner := bufio.NewScanner(body)
		var last int64
		n := 0
		for scanner.Scan() {
			line := scanner.Text()
			if !strings.HasPrefix(line, "id: ") {
				continue
			}
			seq, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			seen[seq]++
			last = seq
			n++
			if (stopAfter > 0 && n >= stopAfter) || (stopAtSeq > 0 && seq >= stopAtSeq) {
				return last
			}
		}
		t.Fatalf("stream ended after %d events (last seq %d): %v", n, last, scanner.Err())
		return last
	}

	// First connection: take 3 events of the replay, then drop the link.
	resp, err := http.Get(srv.URL + "/v1/events?since=0")
	if err != nil {
		t.Fatal(err)
	}
	lastSeq := readIDs(resp.Body, 3, 0)
	resp.Body.Close()

	// Resume with Last-Event-ID, exactly as an SSE client would.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/events", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatInt(lastSeq, 10))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	readIDs(resp2.Body, 0, total)

	for seq := int64(1); seq <= total; seq++ {
		if seen[seq] != 1 {
			t.Errorf("seq %d delivered %d times, want exactly once", seq, seen[seq])
		}
	}
}

// TestAuditVolumeWide pins the audit's volume on a daemon shaped like the
// bench's rounds-wide workload (150 async zoo jobs on 500 nodes of 32 CPU /
// 128 GB), five rounds: the ring holds exactly one decision per active job
// per round — not one per granted task, which came to 4,105 events in the
// first round alone — and each job's last decision is the deployment its
// status reports.
func TestAuditVolumeWide(t *testing.T) {
	d, err := New(Config{
		Cluster: cluster.Uniform(500, cluster.Resources{cluster.CPU: 32, cluster.Memory: 128}),
		Seed:    1,
		Trace:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	zoo := workload.Zoo()
	for i := 0; i < 150; i++ {
		submit(t, d, SubmitRequest{Model: zoo[i%len(zoo)].Name, Mode: "async"})
	}
	want := 0
	for r := 0; r < 5; r++ {
		want += len(d.active())
		d.Step()
	}
	all := d.audit.Decisions(-1)
	if len(all) != want {
		t.Fatalf("audit holds %d decisions, want one per active job per round (%d)", len(all), want)
	}
	live := 0
	for id := 1; id <= 150; id++ {
		ds := d.audit.Decisions(id)
		if len(ds) == 0 {
			t.Errorf("job %d: no decisions", id)
			continue
		}
		resp, err := http.Get(srv.URL + "/v1/jobs/" + strconv.Itoa(id))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.terminal() {
			continue
		}
		live++
		last := ds[len(ds)-1]
		if last.Round != 5 || last.PS != st.Alloc.PS || last.Workers != st.Alloc.Workers ||
			!slices.Equal(last.Nodes, st.Nodes) {
			t.Errorf("job %d: last decision round %d %d/%d on %v, status %+v on %v",
				id, last.Round, last.PS, last.Workers, last.Nodes, st.Alloc, st.Nodes)
		}
	}
	if live == 0 || want <= 150 {
		t.Errorf("%d live jobs and %d decisions: the rounds exercised nothing", live, want)
	}
}
