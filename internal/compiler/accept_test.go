package compiler_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/binfile"
	"repro/internal/compiler"
	"repro/internal/env"
	"repro/internal/interp"
	"repro/internal/pickle"
)

// acceptSource binds a name in every namespace, so the rehydrated
// export env has all five.
const acceptSource = `
	type t = int
	datatype d = A | B
	val x : t = 41
	fun f n = n + 1
	structure S = struct val v = 7 end
	signature SIG = sig val v : int end
	functor F (X : SIG) = struct val w = X.v end
`

// TestAcceptSharedEnvConcurrent has several sessions Accept, at once,
// one unit whose export env all of them got from a shared EnvCache.
// Accept layers a fresh env over each session's context and copies the
// shared env into it, while the other sessions read the same env; then
// each looks up the exports and runs a client against them. Run under
// -race.
func TestAcceptSharedEnvConcurrent(t *testing.T) {
	s, err := compiler.NewSession(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.Run("lib", acceptSource)
	if err != nil {
		t.Fatal(err)
	}
	data, err := binfile.Encode(u, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Warm the cache, so every session below is served the same env.
	cache := pickle.NewEnvCache(0)
	warm, err := compiler.NewSession(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := binfile.Read(data, warm.Index, cache, nil)
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 6
	envs := make([]*env.Env, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := compiler.NewSession(&bytes.Buffer{})
			if err != nil {
				t.Error(err)
				return
			}
			u, err := binfile.Read(data, s.Index, cache, nil)
			if err != nil {
				t.Error(err)
				return
			}
			envs[i] = u.Env
			if err := compiler.Execute(s.Machine, u, s.Dyn, nil, nil, 0); err != nil {
				t.Error(err)
				return
			}
			s.Accept(u)

			ctx := s.Context
			_, okv := ctx.LookupVal("x")
			_, okt := ctx.LookupTycon("t")
			_, oks := ctx.LookupStr("S")
			_, okg := ctx.LookupSig("SIG")
			_, okf := ctx.LookupFct("F")
			if !okv || !okt || !oks || !okg || !okf {
				t.Errorf("session %d: exports missing after Accept (val %v, type %v, structure %v, signature %v, functor %v)",
					i, okv, okt, oks, okg, okf)
				return
			}
			if _, err := s.Run("client", "val y = f x\nstructure G = F (S)\nval z = G.w"); err != nil {
				t.Errorf("session %d: client: %v", i, err)
				return
			}
			for name, want := range map[string]interp.Value{"y": interp.IntV(42), "z": interp.IntV(7)} {
				vb, _ := s.Context.LookupVal(name)
				if got, ok := s.Dyn.Lookup(vb.ExportPid); !ok || got != want {
					t.Errorf("session %d: %s = %v, want %v", i, name, got, want)
				}
			}
		}(i)
	}
	wg.Wait()
	for i, e := range envs {
		if e != nil && e != first.Env {
			t.Errorf("session %d was not served the cached env", i)
		}
	}
}
