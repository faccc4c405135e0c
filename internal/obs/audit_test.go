package obs

import "testing"

func TestAuditLogPerJobHistory(t *testing.T) {
	a := NewAuditLog(64)
	a.Stamp(1, 0)
	a.Record(Decision{Job: 1, GrantPS: 1, GrantWorkers: 2, PS: 1, Workers: 2, Servers: 1, Nodes: []string{"n0"}})
	a.Record(Decision{Job: 2, GrantPS: 1, GrantWorkers: 1})
	a.Stamp(2, 600)
	a.Record(Decision{Job: 1, GrantPS: 2, GrantWorkers: 2, PS: 2, Workers: 2, Servers: 2, Even: true})

	d1 := a.Decisions(1)
	if len(d1) != 2 {
		t.Fatalf("job 1 decisions = %d, want 2", len(d1))
	}
	if d1[0].Round != 1 || d1[0].Time != 0 || d1[0].Seq != 1 || d1[0].Nodes[0] != "n0" {
		t.Errorf("first-round decision wrong: %+v", d1[0])
	}
	if d1[1].Round != 2 || d1[1].Time != 600 || d1[1].Seq != 3 || !d1[1].Even {
		t.Errorf("stamp not applied: %+v", d1[1])
	}
	if all := a.Decisions(-1); len(all) != 3 || all[1].Job != 2 || all[1].Seq != 2 {
		t.Errorf("all decisions = %+v", all)
	}
	if d := a.Decisions(9); len(d) != 0 {
		t.Errorf("unknown job has decisions: %+v", d)
	}
}

// TestAuditLogRingWrapAndDisabled: the log keeps the newest decisions, and
// a nil log — the disabled state — records and returns nothing.
func TestAuditLogRingWrapAndDisabled(t *testing.T) {
	a := NewAuditLog(4)
	for i := 0; i < 10; i++ {
		a.Record(Decision{Job: i})
	}
	got := a.Decisions(-1)
	if len(got) != 4 {
		t.Fatalf("retained %d, want 4", len(got))
	}
	for i, d := range got {
		if want := 6 + i; d.Job != want || d.Seq != int64(want+1) {
			t.Errorf("decision %d: job %d seq %d, want job %d", i, d.Job, d.Seq, want)
		}
	}

	var nilA *AuditLog
	nilA.Record(Decision{}) // must not panic
	nilA.Stamp(1, 0)
	if nilA.Decisions(-1) != nil {
		t.Error("nil log returned decisions")
	}
}
