package elab_test

import (
	"testing"
)

// These tests target the runtime side of signature matching: the
// coercion records built by matchSig must place each value in the slot
// the signature's layout dictates, under reordering, thinning,
// inclusion, and nesting. Getting a slot wrong produces wrong *values*,
// not type errors, so each test checks computed results.

func TestCoercionReordersSlots(t *testing.T) {
	s := newSession(t)
	// The signature lists specs in the opposite order from the
	// structure's declarations.
	mustRun(t, s, `
		signature REV = sig
		  val third : int
		  val second : int
		  val first : int
		end
		structure M : REV = struct
		  val first = 1
		  val second = 2
		  val third = 3
		end
		val check = M.first * 100 + M.second * 10 + M.third
	`)
	if got := intOf(t, s, "check"); got != 123 {
		t.Errorf("check = %d (slot misalignment)", got)
	}
}

func TestCoercionThinsAndKeepsValues(t *testing.T) {
	s := newSession(t)
	mustRun(t, s, `
		structure Big = struct
		  val a = 1
		  val noise1 = 91
		  val b = 2
		  val noise2 = 92
		  fun f x = x + a + b
		  val noise3 = 93
		end
		signature SMALL = sig
		  val f : int -> int
		  val b : int
		end
		structure Thin : SMALL = Big
		val r = Thin.f 10 + Thin.b
	`)
	if got := intOf(t, s, "r"); got != 15 {
		t.Errorf("r = %d", got)
	}
}

func TestNestedStructureCoercion(t *testing.T) {
	s := newSession(t)
	mustRun(t, s, `
		signature INNER = sig val v : int end
		signature OUTER = sig
		  structure B : INNER
		  structure A : INNER
		end
		structure O : OUTER = struct
		  structure A = struct val v = 1 val junk = 99 end
		  structure B = struct val extra = 5 val v = 2 end
		end
		val sum = O.A.v * 10 + O.B.v
	`)
	if got := intOf(t, s, "sum"); got != 12 {
		t.Errorf("sum = %d", got)
	}
}

func TestIncludeLayoutAcrossUnits(t *testing.T) {
	s := newSession(t)
	mustRun(t, s, `
		signature BASE = sig val b1 : int val b2 : int end
		signature FULL = sig
		  val pre : int
		  include BASE
		  val post : int
		end
	`)
	// Match in a separate unit, through the rehydration-free path.
	mustRun(t, s, `
		structure F : FULL = struct
		  val post = 4
		  val b2 = 3
		  val pre = 1
		  val b1 = 2
		end
		val ordered = F.pre * 1000 + F.b1 * 100 + F.b2 * 10 + F.post
	`)
	if got := intOf(t, s, "ordered"); got != 1234 {
		t.Errorf("ordered = %d", got)
	}
}

func TestConstructorMatchedByValSpec(t *testing.T) {
	s := newSession(t)
	// A datatype constructor satisfies a val spec; the coercion must
	// eta-expand it into an ordinary function value.
	mustRun(t, s, `
		signature MK = sig
		  type t
		  val mk : int -> t
		  val get : t -> int
		end
		structure M : MK = struct
		  datatype t = T of int
		  val mk = T
		  fun get (T n) = n
		end
		val out = M.get (M.mk 9)
	`)
	if got := intOf(t, s, "out"); got != 9 {
		t.Errorf("out = %d", got)
	}
	// Even when the constructor itself is the matched binding.
	mustRun(t, s, `
		signature MK2 = sig
		  type u
		  val inject : int -> u
		end
		structure M2 : MK2 = struct
		  datatype u = U of int
		  val inject = U
		end
		structure M3 : MK2 = struct
		  datatype u = V of int
		  fun inject n = V n
		end
	`)
}

func TestExceptionSpecCoercion(t *testing.T) {
	s := newSession(t)
	mustRun(t, s, `
		signature ERR = sig
		  exception Problem of string
		  val trigger : unit -> int
		end
		structure E : ERR = struct
		  exception Problem of string
		  fun trigger () = raise Problem "boom"
		end
		(* The exception matched through the signature must be the SAME
		   tag the implementation raises. *)
		val caught = E.trigger () handle E.Problem m => size m
	`)
	if got := intOf(t, s, "caught"); got != 4 {
		t.Errorf("caught = %d", got)
	}
}

func TestFunctorParamCoercion(t *testing.T) {
	s := newSession(t)
	// The functor's view of its parameter uses the param signature's
	// layout, not the argument structure's.
	mustRun(t, s, `
		functor Pick (X : sig val wanted : int end) = struct
		  val got = X.wanted
		end
		structure Arg = struct
		  val noise = 77
		  val wanted = 5
		  val more = 88
		end
		structure P = Pick (Arg)
		val got = P.got
	`)
	if got := intOf(t, s, "got"); got != 5 {
		t.Errorf("got = %d", got)
	}
}

func TestDoubleAscription(t *testing.T) {
	s := newSession(t)
	mustRun(t, s, `
		signature WIDE = sig val x : int val y : int end
		signature NARROW = sig val y : int end
		structure W = struct val x = 1 val y = 2 val z = 3 end
		structure N : NARROW = W : WIDE
		val out = N.y
	`)
	if got := intOf(t, s, "out"); got != 2 {
		t.Errorf("out = %d", got)
	}
}

func TestOpaqueNestedAbstraction(t *testing.T) {
	s := newSession(t)
	mustRun(t, s, `
		signature STACKS = sig
		  structure IntStack : sig
		    type t
		    val empty : t
		    val push : int * t -> t
		    val sum : t -> int
		  end
		end
		structure S :> STACKS = struct
		  structure IntStack = struct
		    type t = int list
		    val empty = nil
		    fun push (x, s) = x :: s
		    fun sum l = foldl (fn (a, b) => a + b) 0 l
		  end
		end
		val total = S.IntStack.sum (S.IntStack.push (1, S.IntStack.push (2, S.IntStack.empty)))
	`)
	if got := intOf(t, s, "total"); got != 3 {
		t.Errorf("total = %d", got)
	}
	// Representation hidden inside the nested abstract type too.
	mustFail(t, s, `val leak = S.IntStack.sum [1, 2]`, "")
}

func TestWhereTypeOnNestedPath(t *testing.T) {
	s := newSession(t)
	mustRun(t, s, `
		signature HAS_SUB = sig
		  structure Sub : sig type t val use : t -> t end
		end
		signature INT_SUB = HAS_SUB where type Sub.t = int
		structure H : INT_SUB = struct
		  structure Sub = struct type t = int fun use n = n + 1 end
		end
		val through = H.Sub.use 41
	`)
	if got := intOf(t, s, "through"); got != 42 {
		t.Errorf("through = %d", got)
	}
}

func TestFunctorReexportingParameterStructure(t *testing.T) {
	s := newSession(t)
	mustRun(t, s, `
		functor Wrap (X : sig val n : int end) = struct
		  structure Inner = X
		  val doubled = X.n * 2
		end
		structure W = Wrap (struct val n = 21 end)
		val a = W.Inner.n
		val b = W.doubled
	`)
	if intOf(t, s, "a") != 21 || intOf(t, s, "b") != 42 {
		t.Error("re-exported parameter structure")
	}
}

func TestOpenInsideFunctorBody(t *testing.T) {
	s := newSession(t)
	mustRun(t, s, `
		functor UsesOpen (X : sig val base : int val step : int end) = struct
		  open X
		  val result = base + step + step
		end
		structure U = UsesOpen (struct val base = 10 val step = 5 end)
		val r = U.result
		val alsoBase = U.base
	`)
	if intOf(t, s, "r") != 20 || intOf(t, s, "alsoBase") != 10 {
		t.Error("open inside functor body")
	}
}

func TestOpenedParamFunctorForm(t *testing.T) {
	s := newSession(t)
	mustRun(t, s, `
		functor Direct (val seed : int type item val wrap : int -> item) = struct
		  val out = wrap (seed + 1)
		end
		structure D = Direct (struct
		  val seed = 9
		  type item = int list
		  fun wrap n = [n]
		end)
		val first = hd D.out
	`)
	if got := intOf(t, s, "first"); got != 10 {
		t.Errorf("first = %d", got)
	}
}

func TestPolymorphicValuesThroughSignature(t *testing.T) {
	s := newSession(t)
	mustRun(t, s, `
		signature POLY = sig
		  val id : 'a -> 'a
		  val swap : 'a * 'b -> 'b * 'a
		end
		structure P : POLY = struct
		  fun id x = x
		  fun swap (a, b) = (b, a)
		end
		val (x, y) = P.swap (1, "one")
		val n = P.id 3
		val st = P.id "s"
	`)
	if got := strOf(t, s, "x"); got != "one" {
		t.Errorf("x = %q", got)
	}
	if got := intOf(t, s, "n"); got != 3 {
		t.Errorf("n = %d", got)
	}
}

func TestEqtypePropagatesThroughMatch(t *testing.T) {
	s := newSession(t)
	mustRun(t, s, `
		signature EQ = sig eqtype t val mk : int -> t end
		structure E : EQ = struct type t = int * string fun mk n = (n, "x") end
		val same = E.mk 1 = E.mk 1
	`)
	// Under opaque ascription eqtype still admits equality...
	mustRun(t, s, `
		structure EO :> EQ = struct type t = int fun mk n = n end
		val sameO = EO.mk 2 = EO.mk 2
	`)
	// ...but a plain opaque type does not.
	mustRun(t, s, `
		signature NEQ = sig type t val mk : int -> t end
		structure NO :> NEQ = struct type t = int fun mk n = n end
	`)
	mustFail(t, s, `val bad = NO.mk 1 = NO.mk 1`, "equality")
}
