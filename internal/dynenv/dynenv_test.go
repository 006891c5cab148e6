package dynenv

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/pid"
)

func TestBindLookup(t *testing.T) {
	d := New()
	p := pid.HashString("x")
	if _, ok := d.Lookup(p); ok {
		t.Fatal("phantom binding")
	}
	d.Bind(p, interp.IntV(7))
	v, ok := d.Lookup(p)
	if !ok || v != interp.IntV(7) {
		t.Fatal("lookup failed")
	}
	if d.Len() != 1 {
		t.Errorf("len %d", d.Len())
	}
}

func TestMustLookup(t *testing.T) {
	d := New()
	if _, err := d.MustLookup(pid.HashString("missing")); err == nil {
		t.Error("missing pid not reported")
	}
}

func TestCopyIsolation(t *testing.T) {
	d := New()
	p := pid.HashString("x")
	d.Bind(p, interp.IntV(1))
	c := d.Copy()
	c.Bind(p, interp.IntV(2))
	if v, _ := d.Lookup(p); v != interp.IntV(1) {
		t.Error("copy mutated original")
	}
}

func TestPidsSorted(t *testing.T) {
	d := New()
	for _, s := range []string{"c", "a", "b"} {
		d.Bind(pid.HashString(s), interp.Unit())
	}
	pids := d.Pids()
	for i := 1; i < len(pids); i++ {
		if pids[i-1].Compare(pids[i]) >= 0 {
			t.Error("pids not sorted")
		}
	}
}

// TestConcurrentBindLookup is the contract the scheduler's exec
// workers rely on: goroutines binding distinct pids into one Env while
// others read it with Lookup, Len and Pids. Run it under -race; once
// the writers are done, every bind is present with its value.
func TestConcurrentBindLookup(t *testing.T) {
	const writers, perWriter = 4, 200
	d := New()
	pidOf := func(w, i int) pid.Pid { return pid.HashString(fmt.Sprintf("w%d/%d", w, i)) }
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d.Bind(pidOf(w, i), interp.IntV(int64(w*perWriter+i)))
			}
		}(w)
	}
	done := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch r {
				case 0:
					if v, ok := d.Lookup(pidOf(i%writers, i%perWriter)); ok && v == nil {
						t.Error("bound pid read back nil")
					}
				case 1:
					if n := d.Len(); n > writers*perWriter {
						t.Errorf("Len %d exceeds the binds made", n)
					}
				case 2:
					d.Pids()
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	rg.Wait()
	if d.Len() != writers*perWriter {
		t.Fatalf("Len %d, want %d", d.Len(), writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if v, ok := d.Lookup(pidOf(w, i)); !ok || v != interp.IntV(int64(w*perWriter+i)) {
				t.Fatalf("writer %d bind %d: got %v, %v", w, i, v, ok)
			}
		}
	}
}

func TestRebind(t *testing.T) {
	d := New()
	p := pid.HashString("x")
	d.Bind(p, interp.IntV(1))
	d.Bind(p, interp.IntV(2))
	if v, _ := d.Lookup(p); v != interp.IntV(2) {
		t.Error("rebind did not replace")
	}
	if d.Len() != 1 {
		t.Error("rebind grew the env")
	}
}
