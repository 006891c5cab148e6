package pickle

import (
	"repro/internal/pid"
)

// Header writes a bin-file header: unit name, intrinsic static pid,
// import pid vector, and export-record width.
func (p *Pickler) Header(name string, statPid pid.Pid, imports []pid.Pid, numSlots int) {
	p.w.string(name)
	p.w.pid(statPid)
	p.w.int(len(imports))
	for _, im := range imports {
		p.w.pid(im)
	}
	p.w.int(numSlots)
}

// Header reads a bin-file header. The static pid it reads is the
// origin of the unit's own stamps (see Owned).
func (u *Unpickler) Header() (name string, statPid pid.Pid, imports []pid.Pid, numSlots int) {
	name = u.r.string()
	statPid = u.r.pid()
	u.origin = statPid
	n := u.r.int()
	if n < 0 || n > 1<<20 {
		u.r.error("pickle: bad import count")
		return name, statPid, nil, 0
	}
	if n > 0 { // sized by the bytes left, which a forged count cannot raise
		imports = make([]pid.Pid, 0, min(n, u.left()/pid.Size))
	}
	for i := 0; i < n && u.r.err == nil; i++ {
		imports = append(imports, u.r.pid())
	}
	numSlots = u.r.int()
	return name, statPid, imports, numSlots
}
