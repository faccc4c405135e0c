package psys

import (
	"errors"
	"fmt"
	"sync"

	"optimus/internal/speedfit"
)

// ErrClosed is returned by operations on a stopped server.
var ErrClosed = errors.New("psys: server closed")

// BlockLayout describes how the parameter vector is split into blocks: block
// i covers params[Offsets[i] : Offsets[i]+Sizes[i]].
type BlockLayout struct {
	Sizes   []int
	Offsets []int
}

// NewBlockLayout builds a layout from block sizes.
func NewBlockLayout(sizes []int) (BlockLayout, error) {
	if len(sizes) == 0 {
		return BlockLayout{}, errors.New("psys: no blocks")
	}
	l := BlockLayout{Sizes: append([]int(nil), sizes...), Offsets: make([]int, len(sizes))}
	off := 0
	for i, s := range sizes {
		if s <= 0 {
			return BlockLayout{}, fmt.Errorf("psys: invalid block size %d", s)
		}
		l.Offsets[i] = off
		off += s
	}
	return l, nil
}

// Dim is the total parameter count.
func (l BlockLayout) Dim() int {
	n := len(l.Sizes)
	if n == 0 {
		return 0
	}
	return l.Offsets[n-1] + l.Sizes[n-1]
}

// EvenLayout splits dim parameters into nBlocks roughly equal blocks.
func EvenLayout(dim, nBlocks int) (BlockLayout, error) {
	if dim <= 0 || nBlocks <= 0 {
		return BlockLayout{}, fmt.Errorf("psys: invalid layout %d/%d", dim, nBlocks)
	}
	if nBlocks > dim {
		nBlocks = dim
	}
	sizes := make([]int, nBlocks)
	base, rem := dim/nBlocks, dim%nBlocks
	for i := range sizes {
		sizes[i] = base
		if i < rem {
			sizes[i]++
		}
	}
	return NewBlockLayout(sizes)
}

// blockState is one parameter block hosted by a server.
type blockState struct {
	params   []float64
	accum    []float64 // gradient accumulator (sync mode)
	velocity []float64 // momentum state (lazily allocated)
	pushes   int       // pushes received this round (sync mode)
	version  int       // completed update rounds
}

// Server is one parameter server: it hosts a subset of the model's blocks
// and applies SGD updates to them. In synchronous mode a block's round
// completes when all expected workers have pushed, at which point the
// aggregated gradient is applied and the block version advances; Pull can
// wait for a minimum version, which is what synchronizes the workers. In
// asynchronous mode every push is applied immediately (§2.2).
type Server struct {
	mu   sync.Mutex
	cond *sync.Cond
	mode speedfit.Mode
	lr   float64
	// momentum is the SGD momentum coefficient μ (0 = plain SGD): the PS
	// applies v ← μ·v + g, θ ← θ − lr·v, one of the "some optimization
	// algorithm" choices §2.2 allows the servers.
	momentum float64
	workers  int
	blocks   map[int]*blockState
	closed   bool
}

// NewServer creates a server for the given mode, learning rate and expected
// worker count (the sync barrier width; ignored for async).
func NewServer(mode speedfit.Mode, lr float64, workers int) (*Server, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("psys: invalid learning rate %g", lr)
	}
	if workers <= 0 {
		return nil, fmt.Errorf("psys: invalid worker count %d", workers)
	}
	s := &Server{
		mode:    mode,
		lr:      lr,
		workers: workers,
		blocks:  make(map[int]*blockState),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Host installs a block with initial parameter values (copied).
func (s *Server) Host(blockID int, initial []float64) error {
	if len(initial) == 0 {
		return fmt.Errorf("psys: empty block %d", blockID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.blocks[blockID]; dup {
		return fmt.Errorf("psys: block %d already hosted", blockID)
	}
	s.blocks[blockID] = &blockState{
		params: append([]float64(nil), initial...),
		accum:  make([]float64, len(initial)),
	}
	return nil
}

// Push delivers one worker's gradient for a block. Sync mode accumulates and
// applies the averaged gradient once all workers have pushed; async applies
// immediately.
func (s *Server) Push(blockID int, grad []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	b, ok := s.blocks[blockID]
	if !ok {
		return fmt.Errorf("psys: block %d not hosted here", blockID)
	}
	if len(grad) != len(b.params) {
		return fmt.Errorf("psys: block %d gradient size %d, want %d",
			blockID, len(grad), len(b.params))
	}
	if s.mode == speedfit.Async {
		s.applyLocked(b, grad, 1)
		b.version++
		s.cond.Broadcast()
		return nil
	}
	for i, g := range grad {
		b.accum[i] += g
	}
	b.pushes++
	if b.pushes >= s.workers {
		s.applyLocked(b, b.accum, 1/float64(s.workers))
		for i := range b.accum {
			b.accum[i] = 0
		}
		b.pushes = 0
		b.version++
		s.cond.Broadcast()
	}
	return nil
}

// Pull returns a copy of the block's parameters once its version is at least
// minVersion (the sync barrier; pass 0 to read immediately). It unblocks
// with ErrClosed when the server stops.
func (s *Server) Pull(blockID int, minVersion int) ([]float64, int, error) {
	return s.PullInto(blockID, minVersion, nil)
}

// PullInto is Pull with a caller-provided buffer: the parameters are appended
// into dst's backing array (dst may be nil), so a steady-state caller that
// feeds the previous result back in pulls without allocating. The returned
// slice is caller-owned until the next reuse of the same buffer.
func (s *Server) PullInto(blockID, minVersion int, dst []float64) ([]float64, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blocks[blockID]
	if !ok {
		return dst, 0, fmt.Errorf("psys: block %d not hosted here", blockID)
	}
	for b.version < minVersion && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return dst, 0, ErrClosed
	}
	return append(dst[:0], b.params...), b.version, nil
}

// SetMomentum sets the SGD momentum coefficient in [0, 1). It must be
// called before training starts.
func (s *Server) SetMomentum(mu float64) error {
	if mu < 0 || mu >= 1 {
		return fmt.Errorf("psys: invalid momentum %g", mu)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.momentum = mu
	return nil
}

// applyLocked performs one SGD(+momentum) update on a block with the given
// (averaged) gradient. Caller holds s.mu.
func (s *Server) applyLocked(b *blockState, grad []float64, scale float64) {
	if s.momentum > 0 && b.velocity == nil {
		b.velocity = make([]float64, len(b.params))
	}
	for i := range b.params {
		g := grad[i] * scale
		if s.momentum > 0 {
			b.velocity[i] = s.momentum*b.velocity[i] + g
			g = b.velocity[i]
		}
		b.params[i] -= s.lr * g
	}
}

// Blocks returns the sorted IDs this server hosts.
func (s *Server) Blocks() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.blocks))
	for id := range s.blocks {
		out = append(out, id)
	}
	sortInts(out)
	return out
}

// Close stops the server, waking all blocked pulls.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
