package psys

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSSPValidation(t *testing.T) {
	if _, err := NewSSPCoordinator(-1, []int{0}); err == nil {
		t.Error("negative slack accepted")
	}
	if _, err := NewSSPCoordinator(1, nil); err == nil {
		t.Error("no workers accepted")
	}
	if _, err := NewSSPCoordinator(1, []int{0, 0}); err == nil {
		t.Error("duplicate workers accepted")
	}
	c, err := NewSSPCoordinator(1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Advance(99); err == nil {
		t.Error("unknown worker accepted")
	}
}

func TestSSPBoundsStaleness(t *testing.T) {
	const slack = 2
	c, err := NewSSPCoordinator(slack, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var maxSeen int64
	var wg sync.WaitGroup
	run := func(id int, steps int, delay time.Duration) {
		defer wg.Done()
		for s := 0; s < steps; s++ {
			if delay > 0 {
				time.Sleep(delay) // sleep: the simulated slow worker's step time
			}
			if err := c.Advance(id); err != nil {
				return
			}
			if st := int64(c.Staleness()); st > atomic.LoadInt64(&maxSeen) {
				atomic.StoreInt64(&maxSeen, st)
			}
		}
	}
	wg.Add(2)
	go run(0, 50, 0)                    // fast worker
	go run(1, 50, 500*time.Microsecond) // slow worker
	wg.Wait()
	if got := atomic.LoadInt64(&maxSeen); got > slack+1 {
		t.Errorf("observed staleness %d, bound %d (+1 transient)", got, slack)
	}
}

func TestSSPZeroSlackIsLockstep(t *testing.T) {
	c, err := NewSSPCoordinator(0, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Worker 0 advances once, then must block until worker 1 advances.
	done := make(chan error, 1)
	go func() {
		if err := c.Advance(0); err != nil { // round 1; slowest=0 → 1-0 > 0 → blocks
			done <- err
			return
		}
		done <- nil
	}()
	select {
	case <-done:
		t.Fatal("fast worker was not blocked at slack 0")
	case <-time.After(30 * time.Millisecond):
	}
	if err := c.Advance(1); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("fast worker still blocked after slow caught up")
	}
}

func TestSSPRemoveUnblocks(t *testing.T) {
	c, err := NewSSPCoordinator(0, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() { done <- c.Advance(0) }()
	// An Advance that has not blocked yet returns at once after Remove:
	// the test passes either way.
	// sleep: let Advance block first, so the wake-up path is what runs.
	time.Sleep(10 * time.Millisecond)
	c.Remove(1) // the laggard leaves (replaced); waiter must wake
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Advance still blocked after Remove")
	}
}

func TestSSPCloseUnblocks(t *testing.T) {
	c, err := NewSSPCoordinator(0, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Advance(0) }()
	// An Advance that has not blocked yet returns ErrClosed at once: the
	// test passes either way.
	// sleep: let Advance block first, so the wake-up path is what runs.
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("got %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Advance still blocked after Close")
	}
}
