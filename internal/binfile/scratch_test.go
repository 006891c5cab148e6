package binfile

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
)

// TestScratchConcurrentReads has 8 goroutines load different bins at
// once, over and over, so pooled scratch slabs are taken, filled and
// released concurrently by loads and by first calls. Each loaded unit
// must still print its own result, and each unit's term must re-pickle
// to its bin's bytes (run it under -race: two loads sharing one
// scratch would race on its chunks).
func TestScratchConcurrentReads(t *testing.T) {
	const workers, rounds = 8, 10
	bins := make([][]byte, workers)
	want := make([]string, workers)
	for i := range bins {
		s := newSession(t)
		u, err := s.Run(fmt.Sprintf("u%d", i), fmt.Sprintf(`
			datatype t = A of int | B of string | C
			fun f (A n) = n * %d | f (B s) = size s | f C = 0
			fun sum [] = 0 | sum (x :: xs) = f x + sum xs
			fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
			val _ = print (Int.toString (sum [A 3, B "scratch", C] + fib %d) ^ "\n")
		`, i+2, i+5))
		if err != nil {
			t.Fatal(err)
		}
		if bins[i], err = Encode(u); err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprintf("%d\n", 3*(i+2)+7+fib(i+5))
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := range bins {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var out bytes.Buffer
				s, err := compiler.NewSession(&out)
				if err != nil {
					errs <- err
					return
				}
				u, err := Read(bins[i], s.Index)
				if err != nil {
					errs <- err
					return
				}
				if err := compiler.Execute(s.Machine, u, s.Dyn); err != nil {
					errs <- err
					return
				}
				if out.String() != want[i] {
					errs <- fmt.Errorf("unit %d round %d printed %q, want %q", i, r, out.String(), want[i])
					return
				}
				for _, fn := range interp.LoadedFuncs(u.Prog) {
					interp.Force(s.Machine, fn)
				}
				again, err := Encode(u)
				if err != nil || !bytes.Equal(again, bins[i]) {
					errs <- fmt.Errorf("unit %d round %d: re-encoded bin differs (%v)", i, r, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func fib(n int) int {
	if n < 2 {
		return n
	}
	return fib(n-1) + fib(n-2)
}
