package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"optimus/internal/cluster"
)

func testServer(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	d := testDaemon(t)
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return d, srv
}

func postJob(t *testing.T, url, body string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, st
}

func TestHTTPSubmitStatusCancel(t *testing.T) {
	d, srv := testServer(t)

	code, st := postJob(t, srv.URL, `{"model":"resnet-50","mode":"async","threshold":0.01}`)
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d", code)
	}
	if st.ID != 1 || st.State != StatePending || st.Model != "resnet-50" {
		t.Fatalf("submit response %+v", st)
	}

	d.Step()

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", srv.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	var got JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateRunning || got.Alloc.Tasks() == 0 {
		t.Fatalf("status after round: %+v", got)
	}

	// The wire shape of the allocation is {"ps":N,"workers":M}.
	raw, _ := json.Marshal(got.Alloc)
	if !bytes.Contains(raw, []byte(`"ps":`)) || !bytes.Contains(raw, []byte(`"workers":`)) {
		t.Fatalf("allocation wire shape %s", raw)
	}

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%d", srv.URL, st.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	// Cancel again → 409; unknown job → 404.
	resp, _ = http.DefaultClient.Do(req)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel status = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/jobs/999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", resp.StatusCode)
	}
}

func TestHTTPValidationAndLimits(t *testing.T) {
	_, srv := testServer(t)
	if code, _ := postJob(t, srv.URL, `{"model":"nope","mode":"async"}`); code != http.StatusBadRequest {
		t.Fatalf("bad model status = %d", code)
	}
	// Oversized body.
	big := `{"model":"` + strings.Repeat("x", maxBodyBytes) + `","mode":"async"}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d", resp.StatusCode)
	}
}

func TestHTTPListAndCluster(t *testing.T) {
	d, srv := testServer(t)
	postJob(t, srv.URL, `{"model":"resnet-50","mode":"async","threshold":0.01}`)
	postJob(t, srv.URL, `{"model":"seq2seq","mode":"sync"}`)
	d.Step()

	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 2 || list.Jobs[0].ID != 1 || list.Jobs[1].ID != 2 {
		t.Fatalf("list %+v", list.Jobs)
	}

	resp, err = http.Get(srv.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cs ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cs.Nodes) != cluster.Testbed().Len() {
		t.Fatalf("cluster reports %d nodes", len(cs.Nodes))
	}
	if cs.ClusterShare <= 0 {
		t.Fatalf("cluster share %g with two running jobs", cs.ClusterShare)
	}
	var usedCPU float64
	for _, n := range cs.Nodes {
		usedCPU += n.Used["cpu"]
	}
	if usedCPU <= 0 {
		t.Fatal("no per-node CPU usage reported")
	}
}

func TestHTTPMetrics(t *testing.T) {
	d, srv := testServer(t)
	postJob(t, srv.URL, `{"model":"resnet-50","mode":"async","threshold":0.01}`)
	d.Step()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		"optimus_jobs_arrived_total 1",
		"optimus_jobs_completed_total 0",
		"optimus_intervals_total 1",
		"optimusd_rounds_total 1",
		"optimusd_jobs_running 1",
		"optimus_running_jobs 1",
		"optimus_waiting_jobs 0",
		"optimus_running_tasks",
		"optimus_cluster_share",
		"optimusd_sim_time_seconds 600",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
	// The per-task utilization gauges had no source in the daemon.
	for _, gone := range []string{"optimus_worker_utilization", "optimus_ps_utilization"} {
		if strings.Contains(out, gone) {
			t.Errorf("metrics still export %s", gone)
		}
	}
}

// metricSamples renders d's exposition and returns each sample's value by
// series name.
func metricSamples(t *testing.T, d *Daemon) map[string]string {
	t.Helper()
	var b strings.Builder
	d.writeMetrics(&b)
	m := map[string]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			m[name] = v
		}
	}
	return m
}

// TestMetricsLastRoundGauges checks that the last-round gauges describe the
// last round, including one with no live job: after the only job is
// cancelled they read zero, as optimusd_jobs_running does.
func TestMetricsLastRoundGauges(t *testing.T) {
	d := testDaemon(t)
	id := submit(t, d, SubmitRequest{Model: "resnet-50", Mode: "async", Threshold: 0.01})
	d.Step()
	d.Step()
	m := metricSamples(t, d)
	if m["optimus_running_jobs"] != "1" || m["optimus_running_tasks"] == "0" || m["optimus_cluster_share"] == "0" {
		t.Fatalf("precondition: running job, got running_jobs %s tasks %s share %s",
			m["optimus_running_jobs"], m["optimus_running_tasks"], m["optimus_cluster_share"])
	}
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	d.Step()
	d.Step()
	m = metricSamples(t, d)
	for _, name := range []string{"optimusd_jobs_running", "optimus_running_jobs",
		"optimus_waiting_jobs", "optimus_running_tasks", "optimus_cluster_share"} {
		if m[name] != "0" {
			t.Errorf("%s = %q after the last job was cancelled, want 0", name, m[name])
		}
	}
	if m["optimus_intervals_total"] != "4" || m["optimusd_rounds_total"] != "4" {
		t.Errorf("intervals %s, rounds %s, want 4 each", m["optimus_intervals_total"], m["optimusd_rounds_total"])
	}
}

func TestHTTPEventsSSE(t *testing.T) {
	d, srv := testServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	postJob(t, srv.URL, `{"model":"resnet-50","mode":"async","threshold":0.01}`)
	d.Step()

	// Read until the "placed" event arrives.
	scanner := bufio.NewScanner(resp.Body)
	var sawSubmitted, sawPlaced bool
	var lastID string
	for scanner.Scan() && !(sawSubmitted && sawPlaced) {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			lastID = strings.TrimPrefix(line, "id: ")
		case line == "event: submitted":
			sawSubmitted = true
		case line == "event: placed":
			sawPlaced = true
		case strings.HasPrefix(line, "data: "):
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", line, err)
			}
		}
	}
	if !sawSubmitted || !sawPlaced {
		t.Fatalf("stream ended early: submitted=%v placed=%v err=%v", sawSubmitted, sawPlaced, scanner.Err())
	}
	cancel()

	// Resuming with ?since=0 replays history from the ring.
	resp2, err := http.Get(srv.URL + "/v1/events?since=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	scanner = bufio.NewScanner(resp2.Body)
	deadline := time.After(5 * time.Second)
	got := make(chan string, 1)
	go func() {
		for scanner.Scan() {
			if strings.HasPrefix(scanner.Text(), "id: ") {
				got <- strings.TrimPrefix(scanner.Text(), "id: ")
				return
			}
		}
	}()
	select {
	case first := <-got:
		if first != "1" {
			t.Fatalf("replay starts at id %s, want 1 (last live id was %s)", first, lastID)
		}
	case <-deadline:
		t.Fatal("replay produced no events")
	}
}

// TestHTTPEventsCursor checks the SSE resume cursor: a ?since or
// Last-Event-ID that is not a non-negative integer is answered 400 instead
// of silently replaying the whole ring, and an empty header means no cursor.
func TestHTTPEventsCursor(t *testing.T) {
	_, srv := testServer(t)
	postJob(t, srv.URL, `{"model":"resnet-50","mode":"async","threshold":0.01}`)
	for _, tc := range []struct {
		name, query string
		header      []string // Last-Event-ID values; nil = header absent
		want        int
	}{
		{"since=abc", "?since=abc", nil, http.StatusBadRequest},
		{"since=-1", "?since=-1", nil, http.StatusBadRequest},
		{"Last-Event-ID abc", "", []string{"abc"}, http.StatusBadRequest},
		{"Last-Event-ID -1", "", []string{"-1"}, http.StatusBadRequest},
		{"empty Last-Event-ID", "", []string{""}, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/v1/events"+tc.query, nil)
			if tc.header != nil {
				req.Header["Last-Event-Id"] = tc.header
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if tc.want != http.StatusOK {
				var e struct{ Error string }
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "cursor") {
					t.Fatalf("error body %+v (%v), want a cursor error", e, err)
				}
				return
			}
			// No cursor: the stream replays from the first event.
			scanner := bufio.NewScanner(resp.Body)
			for scanner.Scan() {
				if id, ok := strings.CutPrefix(scanner.Text(), "id: "); ok {
					if id != "1" {
						t.Fatalf("replay starts at id %s, want 1", id)
					}
					return
				}
			}
			t.Fatalf("stream ended before any event: %v", scanner.Err())
		})
	}
}

// TestClusterNodeMapsCached checks publishClusterLocked's per-node map
// cache: /v1/cluster serves exactly the JSON that building every node's
// maps afresh gives, a node whose Capacity is unchanged keeps its map from
// round to round, and a node whose Capacity changes between rounds shows
// the new map while the snapshot published before it keeps the old one.
func TestClusterNodeMapsCached(t *testing.T) {
	d := testDaemon(t)
	for i := 0; i < 6; i++ {
		submit(t, d, SubmitRequest{Model: "resnet-50", Mode: "async"})
	}
	served := func() []byte {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/cluster", nil))
		return rec.Body.Bytes()
	}
	// rebuilt is the snapshot's JSON with every node map built anew.
	rebuilt := func() []byte {
		st := d.Cluster()
		st.Nodes = nil
		for _, n := range d.cfg.Cluster.Nodes() {
			st.Nodes = append(st.Nodes, NodeStatus{ID: n.ID,
				Capacity: resourceMap(n.Capacity), Used: resourceMap(n.Used())})
		}
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	mapID := func(m map[string]float64) string { return fmt.Sprintf("%p", m) }
	cpu := cluster.CPU.String()

	d.Step()
	first := d.Cluster()
	for r := 0; r < 3; r++ {
		if got, want := served(), rebuilt(); !bytes.Equal(got, want) {
			t.Fatalf("round %d: /v1/cluster differs from rebuilt maps:\n%s\n%s", r, got, want)
		}
		d.Step()
	}
	now := d.Cluster()
	for i := range now.Nodes {
		if mapID(now.Nodes[i].Capacity) != mapID(first.Nodes[i].Capacity) {
			t.Fatalf("node %s: capacity map rebuilt with its capacity unchanged", now.Nodes[i].ID)
		}
	}

	node := d.cfg.Cluster.Nodes()[1]
	old := node.Capacity[cluster.CPU]
	node.Capacity[cluster.CPU] = old + 4
	d.Step()
	after := d.Cluster()
	if got := after.Nodes[1].Capacity[cpu]; got != old+4 {
		t.Fatalf("changed node shows capacity cpu=%g, want %g", got, old+4)
	}
	if got := now.Nodes[1].Capacity[cpu]; got != old {
		t.Fatalf("earlier snapshot's capacity changed to cpu=%g, want %g", got, old)
	}
	if mapID(after.Nodes[0].Capacity) != mapID(now.Nodes[0].Capacity) {
		t.Fatal("an unchanged node's capacity map was rebuilt")
	}
	if got, want := served(), rebuilt(); !bytes.Equal(got, want) {
		t.Fatalf("after the change: /v1/cluster differs from rebuilt maps:\n%s\n%s", got, want)
	}
}
