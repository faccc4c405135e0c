package psys

import (
	"fmt"
	"sync"
)

// ChunkStore is the §5.1 data-serving layer: the training set is divided
// into fixed-size chunks (128 MB in HDFS; example counts here), chunks are
// assigned to workers round-robin so workloads balance, and reassigned when
// the worker count changes under elastic scaling.
type ChunkStore struct {
	mu        sync.RWMutex
	data      Batch
	chunkSize int
	chunks    [][2]int      // [start, end) example ranges
	owner     map[int][]int // workerID → chunk indices
	workerIDs []int         // current assignment order
}

// NewChunkStore splits the dataset into chunks of chunkSize examples.
func NewChunkStore(data Batch, chunkSize int) (*ChunkStore, error) {
	if data.Len() == 0 {
		return nil, fmt.Errorf("psys: empty dataset")
	}
	if len(data.X) != len(data.Y) {
		return nil, fmt.Errorf("psys: X/Y length mismatch: %d vs %d", len(data.X), len(data.Y))
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("psys: invalid chunk size %d", chunkSize)
	}
	cs := &ChunkStore{
		data:      data,
		chunkSize: chunkSize,
		owner:     make(map[int][]int),
	}
	for start := 0; start < data.Len(); start += chunkSize {
		end := start + chunkSize
		if end > data.Len() {
			end = data.Len()
		}
		cs.chunks = append(cs.chunks, [2]int{start, end})
	}
	return cs, nil
}

// NumChunks reports the chunk count.
func (cs *ChunkStore) NumChunks() int {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return len(cs.chunks)
}

// Assign distributes all chunks round-robin over the given worker IDs,
// replacing any previous assignment (§5.1: "assign a roughly equal number of
// chunks to each worker in a round-robin manner... when the number of
// workers changes we reassign the data chunks").
func (cs *ChunkStore) Assign(workerIDs []int) error {
	if len(workerIDs) == 0 {
		return fmt.Errorf("psys: no workers to assign chunks to")
	}
	seen := make(map[int]bool, len(workerIDs))
	for _, id := range workerIDs {
		if seen[id] {
			return fmt.Errorf("psys: duplicate worker id %d", id)
		}
		seen[id] = true
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.owner = make(map[int][]int, len(workerIDs))
	cs.workerIDs = append([]int(nil), workerIDs...)
	for i := range cs.chunks {
		w := workerIDs[i%len(workerIDs)]
		cs.owner[w] = append(cs.owner[w], i)
	}
	return nil
}

// Shard materializes a worker's assigned examples as one Batch. The returned
// slices alias the store's underlying data; callers must not mutate them.
func (cs *ChunkStore) Shard(workerID int) Batch {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	var out Batch
	for _, ci := range cs.owner[workerID] {
		r := cs.chunks[ci]
		out.X = append(out.X, cs.data.X[r[0]:r[1]]...)
		out.Y = append(out.Y, cs.data.Y[r[0]:r[1]]...)
	}
	return out
}

// Imbalance returns the difference between the largest and smallest number
// of examples assigned to any worker — the §5.1 balance criterion.
func (cs *ChunkStore) Imbalance() int {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	if len(cs.workerIDs) == 0 {
		return 0
	}
	lo, hi := -1, 0
	for _, w := range cs.workerIDs {
		n := 0
		for _, ci := range cs.owner[w] {
			r := cs.chunks[ci]
			n += r[1] - r[0]
		}
		if lo < 0 || n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	return hi - lo
}

// shardCursor cycles mini-batches out of a worker's shard deterministically.
type shardCursor struct {
	shard Batch
	pos   int
}

// next returns the following mini-batch of up to m examples, wrapping
// around at the end of the shard (one wrap = one local epoch).
func (c *shardCursor) next(m int) Batch {
	n := c.shard.Len()
	if n == 0 || m <= 0 {
		return Batch{}
	}
	if m > n {
		m = n
	}
	var out Batch
	for i := 0; i < m; i++ {
		idx := (c.pos + i) % n
		out.X = append(out.X, c.shard.X[idx])
		out.Y = append(out.Y, c.shard.Y[idx])
	}
	c.pos = (c.pos + m) % n
	return out
}
