// Scheduling sessions: the §4.1 allocator and §4.2 placer run from scratch
// once per interval, counting rounds and the §5.4 task migrations between
// intervals. They cache nothing (DESIGN.md §15 records why).
package core

import "optimus/internal/cluster"

// IncrStats are the cumulative counters of one session pair, exported by
// optimusd's /v1/cluster endpoint and internal/metrics.
type IncrStats struct {
	// AllocFull and PlaceFull count the intervals each kernel ran. The
	// clean, incremental and partial counts are always 0, since no interval
	// skips or patches a kernel run; they stay for readers that sum them.
	AllocClean       uint64 `json:"alloc_clean"`
	AllocIncremental uint64 `json:"alloc_incremental"`
	AllocFull        uint64 `json:"alloc_full"`
	PlaceClean       uint64 `json:"place_clean"`
	PlacePartial     uint64 `json:"place_partial"`
	PlaceFull        uint64 `json:"place_full"`
	// TasksMigrated is the cumulative number of previously-running tasks
	// whose node assignment changed; LastMigrated is the last interval's.
	TasksMigrated uint64 `json:"tasks_migrated_total"`
	LastMigrated  int    `json:"last_migrated"`
}

// Incremental bundles an allocation session and a placement session.
type Incremental struct {
	Alloc *AllocSession
	Place *PlaceSession
}

// NewIncremental returns a ready session pair.
func NewIncremental() *Incremental {
	return &Incremental{Alloc: &AllocSession{St: NewAllocState()}, Place: &PlaceSession{St: NewPlaceState()}}
}

// Stats merges both sessions' counters.
func (in *Incremental) Stats() IncrStats {
	return IncrStats{
		AllocFull:     in.Alloc.rounds,
		PlaceFull:     in.Place.rounds,
		TasksMigrated: in.Place.migratedTotal,
		LastMigrated:  in.Place.lastMigrated,
	}
}

// AllocSession runs the §4.1 allocator once per interval and counts the
// intervals. The returned map is St's and is overwritten by the next call.
type AllocSession struct {
	// St is the allocator kernel; attach Trace here.
	St     *AllocState
	rounds uint64
}

// Allocate runs St.Allocate.
func (s *AllocSession) Allocate(jobs []*JobInfo, capacity cluster.Resources) map[int]Allocation {
	s.rounds++
	return s.St.Allocate(jobs, capacity)
}

// PlaceSession runs the §4.2 placer once per interval and counts the tasks
// each interval moves. Unlike the bare kernel, the session owns the
// cluster-reset step: callers must not call ResetAll before Place.
type PlaceSession struct {
	// St is the placer kernel; attach Trace here.
	St *PlaceState
	// Prepare resets the cluster to its pre-placement state. Nil means
	// plain ResetAll.
	Prepare func(c *cluster.Cluster)

	cl            *cluster.Cluster // last interval's cluster and placement
	last          map[int]Placement
	requested     map[int]struct{}
	pos           map[string]int32 // node ID → position in cl.Nodes()
	kept          []int            // by position: tasks a job keeps there
	slots         []int32          // the positions kept holds counts at
	rounds        uint64
	migratedTotal uint64
	lastMigrated  int
}

// Place prepares the cluster and runs St.Place. The returned map is
// caller-owned; the session keeps it to count the next interval's moves.
func (s *PlaceSession) Place(reqs []PlacementRequest, c *cluster.Cluster) (map[int]Placement, []int) {
	if s.Prepare != nil {
		s.Prepare(c)
	} else {
		c.ResetAll()
	}
	out, unplaced := s.St.Place(reqs, c)
	s.lastMigrated = s.migrations(out, reqs, c)
	s.migratedTotal += uint64(s.lastMigrated)
	s.cl, s.last = c, out
	s.rounds++
	return out, unplaced
}

// migrations counts tasks placed last interval on the same cluster that must
// now stop or move: for every previously-placed job still requested, tasks on
// a node beyond what the new placement keeps there. Jobs absent from the new
// request list completed — their tasks stopping is not a migration. Each job
// costs one pass over its old and new rows: the new counts are scattered
// into kept by node position, read back for the old rows, and zeroed.
func (s *PlaceSession) migrations(out map[int]Placement, reqs []PlacementRequest, c *cluster.Cluster) int {
	if c != s.cl {
		s.pos = nil // positions of the last cluster
		return 0
	}
	if nodes := c.Nodes(); len(s.pos) != len(nodes) {
		s.pos = make(map[string]int32, len(nodes))
		for i, n := range nodes {
			s.pos[n.ID] = int32(i)
		}
		s.kept = make([]int, len(nodes))
	}
	if s.requested == nil {
		s.requested = make(map[int]struct{}, len(reqs))
	} else {
		clear(s.requested)
	}
	for _, r := range reqs {
		s.requested[r.JobID] = struct{}{}
	}
	moved := 0
	for id, old := range s.last {
		if _, ok := s.requested[id]; !ok {
			continue
		}
		now := out[id] // zero, with no nodes, if the job is unplaced now
		s.slots = s.slots[:0]
		for m, nodeID := range now.NodeIDs {
			i := s.pos[nodeID]
			s.kept[i] = now.PSOnNode[m] + now.WorkersOnNode[m]
			s.slots = append(s.slots, i)
		}
		for k, nodeID := range old.NodeIDs {
			moved += max(old.PSOnNode[k]+old.WorkersOnNode[k]-s.kept[s.pos[nodeID]], 0)
		}
		for _, i := range s.slots {
			s.kept[i] = 0
		}
	}
	return moved
}
