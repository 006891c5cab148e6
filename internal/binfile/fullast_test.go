package binfile

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/interp"
)

// kitchenSink is a unit whose functor body and signature definitions
// exercise every AST node kind the pickler must carry: all expression
// forms, all pattern forms, every declaration and spec kind. Applying
// the functor forces full re-elaboration of the rehydrated syntax.
const kitchenSink = `
signature KS_PARAM = sig
  type t
  eqtype e
  type u = int
  datatype flag = On | Off
  val seed : int
  val lift : int -> t
  val unlift : t -> int
  exception Bad of string
  structure Sub : sig val bonus : int end
end

signature KS_RESULT = sig
  val result : int
  val report : string
end

functor KitchenSink (P : KS_PARAM) : KS_RESULT = struct
  (* exception declarations and aliasing *)
  exception Local of int
  exception Alias = Local

  (* datatype with withtype, replication, abstype *)
  datatype 'a wrap = W of 'a | Pair of both
  withtype both = int * int
  datatype rep = datatype P.flag

  abstype hidden = H of int with
    fun mkHidden n = H n
    fun unHidden (H n) = n
  end

  (* type abbreviation and local *)
  type pair = int * int
  local
    val secret = 3
  in
    val fromLocal = secret * P.seed
  end

  (* fixity inside the body *)
  infix 6 <+>
  fun a <+> b = a + b

  (* every expression form *)
  fun classify 0 = "zero"
    | classify 1 = "one"
    | classify n = if n < 0 then "neg" else "many"

  fun strCase "x" = 1 | strCase _ = 0
  fun charCase #"a" = 1 | charCase _ = 0
  fun wordCase 0w7 = 1 | wordCase _ = 0

  val seqAndWhile =
    let
      val counter = ref 0
      val _ = while !counter < 4 do counter := !counter + 1
      val lst = [1, 2, 3]
      val rcd = {alpha = 1.5, beta = "b"}
      val sel = #alpha rcd
      val tup = (1, "two", #"3")
      val (first, _, _) = tup
      val anon = fn x => x <+> 1
      val handled = (raise Local 9) handle Local n => n | _ => 0
      val booleans = (true andalso false) orelse not false
      val casing = case P.On of On => 10 | Off => 20
      val flex = (fn {alpha, ...} => alpha) rcd
    in
      !counter + length lst + floor sel + first + anon 1 + handled
      + (if booleans then 100 else 0) + casing + floor flex
    end

  (* patterns: as, typed, nested constructor, record with ..., lists *)
  fun deep (all as (W (x : int)) :: _) = x + length all
    | deep (Pair (a, b) :: rest) = a + b + deep rest
    | deep nil = 0

  val result =
    P.unlift (P.lift (P.seed + P.Sub.bonus))
    + fromLocal + seqAndWhile + deep [W 5, Pair (1, 2)]
    + unHidden (mkHidden 21) * 0 + unHidden (mkHidden 2)
    + strCase "x" + charCase #"a" + wordCase 0w7
    + (case classify 5 of "many" => 1 | _ => 0)

  val report = "sum=" ^ Int.toString result

  val _ = (raise P.Bad "probe") handle P.Bad _ => ()
end
`

const kitchenSinkUse = `
structure Arg : KS_PARAM = struct
  type t = int list
  type e = int
  type u = int
  datatype flag = On | Off
  val seed = 4
  fun lift n = [n]
  fun unlift l = hd l
  exception Bad of string
  structure Sub = struct val bonus = 6 end
end

structure Out = KitchenSink (Arg)
val final = Out.result
val text = Out.report
`

// TestKitchenSinkAcrossPickle compiles the kitchen-sink functor, runs
// the client in the SAME session (reference result), then ships the
// functor's bin to a FRESH session and re-runs the client against the
// rehydrated AST. Both sessions must agree exactly.
func TestKitchenSinkAcrossPickle(t *testing.T) {
	// Reference run.
	s1 := newSession(t)
	uLib, err := s1.Run("kslib", kitchenSink)
	if err != nil {
		t.Fatalf("compile kitchen sink: %v", err)
	}
	if _, err := s1.Run("ksuse", kitchenSinkUse); err != nil {
		t.Fatalf("apply kitchen sink: %v", err)
	}
	ref := lookupInt(t, s1, "final")

	// Pickled run.
	data, err := Encode(uLib, nil)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newSession(t)
	u2, err := Read(data, s2.Index, nil, nil)
	if err != nil {
		t.Fatalf("rehydrate: %v", err)
	}
	if err := compiler.Execute(s2.Machine, u2, s2.Dyn, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	s2.Accept(u2)
	if _, err := s2.Run("ksuse", kitchenSinkUse); err != nil {
		t.Fatalf("apply rehydrated kitchen sink: %v", err)
	}
	got := lookupInt(t, s2, "final")

	if got != ref {
		t.Errorf("rehydrated functor computed %d, reference %d", got, ref)
	}
	// And the interface hash of the library survives a pickle cycle
	// (same bytes in, same statpid out).
	if u2.StatPid != uLib.StatPid {
		t.Error("statpid changed across pickle")
	}
}

func lookupInt(t *testing.T, s *compiler.Session, name string) int64 {
	t.Helper()
	vb, ok := s.Context.LookupVal(name)
	if !ok {
		t.Fatalf("unbound %s", name)
	}
	v, ok := s.Dyn.Lookup(vb.ExportPid)
	if !ok {
		t.Fatalf("no value for %s", name)
	}
	n, ok := v.(interp.IntV)
	if !ok {
		t.Fatalf("%s = %s", name, interp.String(v))
	}
	return int64(n)
}
