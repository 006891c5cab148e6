package lambda

// Op is a primitive operator: the one table below gives each op the
// name bins spell it with and its arity, the number of operands a Prim
// of it takes. The basis binds SML names to op names, the elaborator
// resolves them here, and internal/interp indexes its implementations
// by Op.
type Op uint8

// The primitive operators. Overloaded ops (arithmetic, comparison)
// dispatch on the runtime representation of their operands; an op of
// arity 1 whose SML type takes a tuple receives the tuple as one value.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpQuot
	OpRem
	OpFdiv
	OpNeg
	OpAbs
	OpLt
	OpLe
	OpGt
	OpGe
	OpEq
	OpNe
	OpConcat
	OpSize
	OpStr
	OpChr
	OpOrd
	OpExplode
	OpImplode
	OpSubstring
	OpReal
	OpFloor
	OpCeil
	OpRound
	OpTrunc
	OpSqrt
	OpLn
	OpExp
	OpSin
	OpCos
	OpAtan
	OpIntToString
	OpRealToString
	OpRef
	OpDeref
	OpAssign
	OpPrint
	OpExnName
	OpExnMatches // (packet, tag): does the packet carry the tag?
	OpRaiseMatch
	OpRaiseBind
	OpAndb
	OpOrb
	OpXorb
	OpNotb
	OpLshift
	OpRshift
	OpWordToInt
	OpIntToWord
	OpArray
	OpArrayFromList
	OpAsub
	OpAupdate
	OpAlength
	OpVectorFromList
	OpVsub
	OpVlength
	NumOps
)

var ops = [NumOps]struct {
	name  string
	arity int
}{
	OpAdd: {"add", 2}, OpSub: {"sub", 2}, OpMul: {"mul", 2},
	OpDiv: {"div", 2}, OpMod: {"mod", 2}, OpQuot: {"quot", 2}, OpRem: {"rem", 2},
	OpFdiv: {"fdiv", 2}, OpNeg: {"neg", 1}, OpAbs: {"abs", 1},
	OpLt: {"lt", 2}, OpLe: {"le", 2}, OpGt: {"gt", 2}, OpGe: {"ge", 2},
	OpEq: {"eq", 2}, OpNe: {"ne", 2},
	OpConcat: {"concat", 2}, OpSize: {"size", 1}, OpStr: {"str", 1},
	OpChr: {"chr", 1}, OpOrd: {"ord", 1},
	OpExplode: {"explode", 1}, OpImplode: {"implode", 1}, OpSubstring: {"substring", 1},
	OpReal: {"real", 1}, OpFloor: {"floor", 1}, OpCeil: {"ceil", 1},
	OpRound: {"round", 1}, OpTrunc: {"trunc", 1},
	OpSqrt: {"sqrt", 1}, OpLn: {"ln", 1}, OpExp: {"exp", 1},
	OpSin: {"sin", 1}, OpCos: {"cos", 1}, OpAtan: {"atan", 1},
	OpIntToString: {"intToString", 1}, OpRealToString: {"realToString", 1},
	OpRef: {"ref", 1}, OpDeref: {"deref", 1}, OpAssign: {"assign", 2}, OpPrint: {"print", 1},
	OpExnName: {"exnName", 1}, OpExnMatches: {"exnMatches", 2},
	OpRaiseMatch: {"raiseMatch", 0}, OpRaiseBind: {"raiseBind", 0},
	OpAndb: {"andb", 2}, OpOrb: {"orb", 2}, OpXorb: {"xorb", 2}, OpNotb: {"notb", 1},
	OpLshift: {"lshift", 2}, OpRshift: {"rshift", 2},
	OpWordToInt: {"wordToInt", 1}, OpIntToWord: {"intToWord", 1},
	OpArray: {"array", 1}, OpArrayFromList: {"arrayFromList", 1},
	OpAsub: {"asub", 1}, OpAupdate: {"aupdate", 1}, OpAlength: {"alength", 1},
	OpVectorFromList: {"vectorFromList", 1}, OpVsub: {"vsub", 1}, OpVlength: {"vlength", 1},
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, NumOps)
	for op := range NumOps {
		m[ops[op].name] = op
	}
	return m
}()

// LookupOp returns the op spelled name, reporting false for a name the
// table does not hold.
func LookupOp(name string) (Op, bool) {
	op, ok := opByName[name]
	return op, ok
}

// String returns the op's name, as bins spell it.
func (op Op) String() string {
	if op >= NumOps {
		return "?"
	}
	return ops[op].name
}

// Arity returns how many operands a Prim of op takes; -1 for a value
// outside the table.
func (op Op) Arity() int {
	if op >= NumOps {
		return -1
	}
	return ops[op].arity
}
