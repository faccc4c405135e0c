package serve

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"optimus/internal/cluster"
	"optimus/internal/kube"
	"optimus/internal/operator"
	"optimus/internal/speedfit"
	"optimus/internal/wal"
)

// checkExposition asserts the Prometheus text-format invariants a scraper
// relies on: every family has exactly one # HELP line directly followed by
// its # TYPE line, before any of its samples; every sample belongs to a
// declared family, and a family's lines are contiguous; every histogram's
// le="+Inf" bucket equals its _count. It returns the declared families.
func checkExposition(t *testing.T, who, text string) map[string]string {
	t.Helper()
	types := map[string]string{} // family -> TYPE
	helps := map[string]int{}
	infBucket := map[string]string{}
	count := map[string]string{}
	done := map[string]bool{} // families whose block has ended
	current, pendingHelp := "", ""
	enter := func(family string) {
		if family == current {
			return
		}
		if done[family] {
			t.Errorf("%s: family %s is split into two blocks", who, family)
		}
		done[current] = true
		current = family
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if pendingHelp != "" {
			name, typ, ok := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if !strings.HasPrefix(line, "# TYPE ") || !ok || name != pendingHelp {
				t.Errorf("%s: # HELP %s not followed by its # TYPE, got %q", who, pendingHelp, line)
			}
			if _, dup := types[name]; dup {
				t.Errorf("%s: family %s has more than one # TYPE", who, name)
			}
			types[name] = typ
			pendingHelp = ""
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			if helps[name]++; helps[name] > 1 {
				t.Errorf("%s: family %s has more than one # HELP", who, name)
			}
			enter(name)
			pendingHelp = name
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			t.Errorf("%s: unexpected line %q", who, line)
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if _, err := strconv.ParseFloat(value, 64); !ok || err != nil {
			t.Errorf("%s: malformed sample %q", who, line)
			continue
		}
		name, _, _ := strings.Cut(series, "{")
		family := name
		if _, declared := types[name]; !declared {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, suf); ok && types[base] == "histogram" {
					family = base
				}
			}
		}
		if _, declared := types[family]; !declared {
			t.Errorf("%s: sample %q belongs to no declared family", who, line)
			continue
		}
		enter(family)
		switch {
		case series == family+`_bucket{le="+Inf"}`:
			infBucket[family] = value
		case name == family+"_count" && types[family] == "histogram":
			count[family] = value
		}
	}
	if pendingHelp != "" {
		t.Errorf("%s: # HELP %s is the last line, with no # TYPE", who, pendingHelp)
	}
	for family, typ := range types {
		if typ == "histogram" && (infBucket[family] == "" || infBucket[family] != count[family]) {
			t.Errorf("%s: histogram %s has +Inf bucket %q but _count %q", who, family, infBucket[family], count[family])
		}
	}
	return types
}

// TestMetricsExposition scrapes the full /metrics of a booted daemon, after
// scheduling rounds, API calls and a WAL attach, and the operator's export,
// and checks both against the text-format invariants.
func TestMetricsExposition(t *testing.T) {
	d, err := New(Config{Cluster: cluster.Testbed(), Seed: 7, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d.AttachWAL(l)
	d.SetHAStatus(HAStatus{Role: "leader", ID: "a", Term: 1})
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	for i := 0; i < 8; i++ { // enough rounds for loss refits
		if i < 3 {
			postJob(t, srv.URL, `{"model":"resnet-50","mode":"async","threshold":0.01}`)
		}
		d.Step()
	}
	scrape := func() string {
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	scrape() // so the scrape path's own latency is recorded too
	types := checkExposition(t, "optimusd", scrape())
	for _, family := range []string{
		"optimus_jobs_arrived_total", "optimus_interval_duration_seconds",
		"optimus_refit_duration_seconds", "optimus_api_request_duration_seconds",
		"optimus_wal_appends_total", "optimus_ha_leader", "optimus_component_up",
		"optimus_slo_api_p99_seconds", "optimus_build_info",
	} {
		if _, ok := types[family]; !ok {
			t.Errorf("optimusd: family %s missing", family)
		}
	}

	api := kube.NewAPIServer()
	for i := 0; i < 2; i++ {
		if err := api.RegisterNode(kube.Node{Name: fmt.Sprintf("n%d", i),
			Capacity: cluster.Resources{cluster.CPU: 16, cluster.Memory: 64}}); err != nil {
			t.Fatal(err)
		}
	}
	op := operator.New(api, t.TempDir())
	defer op.Shutdown()
	for id := 1; id <= 2; id++ {
		if err := op.Submit(operator.JobRequest{
			ID: id, ModelSpec: "linreg:24", Examples: 800, Noise: 0.01,
			Mode: speedfit.Sync, BatchSize: 32, LR: 0.1, Seed: int64(id + 1), Threshold: 0.02,
			PSRes:     cluster.Resources{cluster.CPU: 3, cluster.Memory: 8},
			WorkerRes: cluster.Resources{cluster.CPU: 5, cluster.Memory: 10},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := op.Cycle(); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := op.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if types := checkExposition(t, "operator", sb.String()); types["optimus_operator_job_last_loss"] != "gauge" {
		t.Errorf("operator: per-job loss family missing: %v", types)
	}
}
