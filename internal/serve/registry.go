package serve

import (
	"sort"
	"sync"
)

// regShards is the fixed shard count of the job registry. Shards are struck
// by job-ID modulo; IDs are assigned monotonically, so consecutive
// submissions land on consecutive shards and the map mutexes see 1/regShards
// of the former global contention. A power of two keeps the modulo a mask.
const regShards = 32

// regShard is one stripe of the registry: a plain map under its own RWMutex.
// The shard lock guards the map itself and, by protocol, the deployment
// fields of every job in it (see job).
type regShard struct {
	mu   sync.RWMutex
	jobs map[int]*job
}

// registry is the sharded job map. It only ever grows: terminal jobs stay
// resident so status queries keep working, exactly like the pre-sharding
// single map.
type registry struct {
	shards [regShards]regShard
}

func (r *registry) init() {
	for i := range r.shards {
		r.shards[i].jobs = make(map[int]*job)
	}
}

// shard returns the stripe owning id.
func (r *registry) shard(id int) *regShard {
	return &r.shards[uint(id)%regShards]
}

// get looks one job up under its shard's read lock. Nil when absent.
func (r *registry) get(id int) *job {
	sh := r.shard(id)
	sh.mu.RLock()
	j := sh.jobs[id]
	sh.mu.RUnlock()
	return j
}

// put inserts one job under its shard's write lock.
func (r *registry) put(id int, j *job) {
	sh := r.shard(id)
	sh.mu.Lock()
	sh.jobs[id] = j
	sh.mu.Unlock()
}

// len counts all jobs, taking each shard's read lock briefly.
func (r *registry) len() int {
	n := 0
	for i := range r.shards {
		r.shards[i].mu.RLock()
		n += len(r.shards[i].jobs)
		r.shards[i].mu.RUnlock()
	}
	return n
}

// forEach visits every job under its owning shard's read lock, one shard at
// a time. Iteration order is arbitrary; callers needing submission order
// sort by ID afterwards (IDs are assigned monotonically, so ID order is
// submission order).
func (r *registry) forEach(fn func(id int, j *job)) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for id, j := range sh.jobs {
			fn(id, j)
		}
		sh.mu.RUnlock()
	}
}

// collect returns the jobs passing keep, sorted by ID (= submission order).
func (r *registry) collect(keep func(j *job) bool) []*job {
	var out []*job
	r.forEach(func(_ int, j *job) {
		if keep(j) {
			out = append(out, j)
		}
	})
	sort.Slice(out, func(a, b int) bool { return out[a].Spec.ID < out[b].Spec.ID })
	return out
}

// lockAll / unlockAll take and release every shard's write lock in index
// order, giving the snapshotter a consistent cut across shards.
func (r *registry) lockAll() {
	for i := range r.shards {
		r.shards[i].mu.Lock()
	}
}

func (r *registry) unlockAll() {
	for i := range r.shards {
		r.shards[i].mu.Unlock()
	}
}
