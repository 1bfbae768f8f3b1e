package minivm

import (
	"fmt"
	"io"

	"gcassert"
)

// VMError is a guest-program runtime error (null dereference, bounds,
// division by zero, ...), with the method and source position it occurred at.
type VMError struct {
	Method string
	PC     int
	Pos    Pos
	Msg    string
}

func (e *VMError) Error() string {
	return fmt.Sprintf("minivm: %s at %s (pc %d in %s)", e.Msg, e.Pos, e.PC, e.Method)
}

// MaxCallDepth bounds guest call nesting. Each guest call is one Go call of
// invoke, and a Go stack overflow is a fatal error no recover can catch, so
// unbounded guest recursion would take down the whole host process; past
// this depth the call fails as a *VMError instead.
const MaxCallDepth = 10_000

// Image is a compiled Unit loaded into a managed runtime: every class is
// registered as a heap type, and execution state (interpreter frames) is
// visible to the collector as GC roots.
type Image struct {
	Unit *Unit
	vm   *gcassert.Runtime
	th   *gcassert.Thread
	out  io.Writer
	// typeIDs maps class index to managed TypeID.
	typeIDs []gcassert.TypeID
	// steps counts executed instructions against MaxSteps.
	steps uint64
	// MaxSteps bounds execution (0 = unlimited); exceeded → VMError.
	MaxSteps uint64
	// provenance mirrors whether the runtime records allocation sites;
	// sites caches the per-(method, pc) registered SiteID of every `new`
	// bytecode so steady-state allocation formats no strings (0 = not yet
	// registered — real IDs are never 0 while provenance is on).
	provenance bool
	sites      map[*MethodInfo][]gcassert.SiteID
}

// Load verifies the unit's bytecode, registers its classes with the
// runtime, and returns an executable image. out receives print() output.
func Load(vm *gcassert.Runtime, unit *Unit, out io.Writer) (*Image, error) {
	if err := Verify(unit); err != nil {
		return nil, err
	}
	im := &Image{Unit: unit, vm: vm, th: vm.NewThread("minivm"), out: out}
	if vm.Space().Provenance() != nil {
		im.provenance = true
		im.sites = make(map[*MethodInfo][]gcassert.SiteID)
	}
	reg := vm.Registry()
	for _, ci := range unit.Classes {
		if id, ok := reg.Lookup(ci.Name); ok {
			// Already registered (e.g. two images on one VM): verify shape.
			info := reg.Info(id)
			if info.NumFields() != len(ci.Fields) {
				return nil, fmt.Errorf("minivm: class %s conflicts with an existing heap type", ci.Name)
			}
			im.typeIDs = append(im.typeIDs, id)
			continue
		}
		fields := make([]gcassert.Field, len(ci.Fields))
		for i, f := range ci.Fields {
			fields[i] = gcassert.Field{Name: f.Name, Ref: f.Type.IsRef()}
		}
		im.typeIDs = append(im.typeIDs, vm.Define(ci.Name, fields...))
	}
	return im, nil
}

// TypeID returns the managed TypeID of a class name.
func (im *Image) TypeID(name string) (gcassert.TypeID, bool) {
	ci, ok := im.Unit.Class(name)
	if !ok {
		return 0, false
	}
	return im.typeIDs[ci.Index], true
}

// Thread returns the image's mutator thread.
func (im *Image) Thread() *gcassert.Thread { return im.th }

// ResetSteps restarts the MaxSteps budget. The step counter is cumulative
// across Run calls, so a long-lived image serving many guest requests (a
// gcassertd tenant) resets between requests to make the bound per-request
// rather than per-lifetime.
func (im *Image) ResetSteps() { im.steps = 0 }

// Run executes Main.main() on a fresh Main instance, converting guest
// runtime errors into *VMError.
func (im *Image) Run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch r := r.(type) {
			case *VMError:
				err = r
			default:
				panic(r)
			}
		}
	}()
	fr := im.th.Push(1)
	defer im.th.Pop()
	mainObj := im.th.New(im.typeIDs[im.Unit.Main.Class.Index])
	fr.Set(0, mainObj)
	im.invoke(im.Unit.Main, []uint64{uint64(mainObj)})
	return nil
}

// siteAt returns the allocation SiteID for the `new` bytecode at (m, pc),
// registering "Class.method:line: new What" with the runtime on first
// execution and caching the ID per method. With provenance off it returns
// the unknown site, and the sited allocation degrades to a plain one.
func (im *Image) siteAt(m *MethodInfo, pc int, what string) gcassert.SiteID {
	if !im.provenance {
		return 0
	}
	ids := im.sites[m]
	if ids == nil {
		ids = make([]gcassert.SiteID, len(m.Code))
		im.sites[m] = ids
	}
	if ids[pc] == 0 {
		pos := Pos{}
		if pc >= 0 && pc < len(m.Pos) {
			pos = m.Pos[pc]
		}
		ids[pc] = im.vm.RegisterAllocSite(fmt.Sprintf("%s:%d: new %s", m.Sig(), pos.Line, what))
	}
	return ids[pc]
}

// fail raises a guest runtime error.
func (im *Image) fail(m *MethodInfo, pc int, format string, args ...interface{}) {
	pos := Pos{}
	if pc >= 0 && pc < len(m.Pos) {
		pos = m.Pos[pc]
	}
	panic(&VMError{Method: m.Sig(), PC: pc, Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// invoke runs one method activation. args holds this + parameters, encoded
// as raw uint64 (references as their Ref bits). It returns the raw return
// value (meaningful only for non-void methods).
func (im *Image) invoke(m *MethodInfo, args []uint64) uint64 {
	if im.th.Depth() > MaxCallDepth {
		im.fail(m, 0, "call depth limit exceeded (%d frames)", MaxCallDepth)
	}
	// One rt frame backs both locals and the operand stack, so every live
	// reference in the activation is a GC root — the interpreter's analogue
	// of a JVM's stack maps.
	fr := im.th.Push(m.NumLocals + m.MaxStack)
	defer im.th.Pop()
	vals := make([]uint64, m.NumLocals+m.MaxStack)
	for i, a := range args {
		vals[i] = a
		if m.RefSlot[i] {
			fr.Set(i, gcassert.Ref(a))
		}
	}
	sp := m.NumLocals

	pushInt := func(v int64) {
		vals[sp] = uint64(v)
		sp++
	}
	pushRef := func(r gcassert.Ref) {
		vals[sp] = uint64(r)
		fr.Set(sp, r)
		sp++
	}
	popInt := func() int64 {
		sp--
		return int64(vals[sp])
	}
	popRef := func() gcassert.Ref {
		sp--
		r := gcassert.Ref(vals[sp])
		fr.Set(sp, gcassert.Nil)
		return r
	}

	vm, space := im.vm, im.vm.Space()
	pc := 0
	for {
		if im.MaxSteps > 0 {
			im.steps++
			if im.steps > im.MaxSteps {
				im.fail(m, pc, "execution budget exceeded (%d steps)", im.MaxSteps)
			}
		}
		if pc < 0 || pc >= len(m.Code) {
			im.fail(m, pc, "pc out of range")
		}
		in := m.Code[pc]
		pc++
		switch in.Op {
		case OpNop:
		case OpConstInt:
			pushInt(in.K)
		case OpNull:
			pushRef(gcassert.Nil)
		case OpLoadInt:
			pushInt(int64(vals[in.A]))
		case OpLoadRef:
			pushRef(gcassert.Ref(vals[in.A]))
		case OpStoreInt:
			vals[in.A] = uint64(popInt())
		case OpStoreRef:
			r := popRef()
			vals[in.A] = uint64(r)
			fr.Set(in.A, r)
		case OpPopInt:
			popInt()
		case OpPopRef:
			popRef()
		case OpGetFInt:
			obj := popRef()
			if obj == gcassert.Nil {
				im.fail(m, pc-1, "null pointer dereference")
			}
			pushInt(int64(space.GetScalar(obj, in.A)))
		case OpGetFRef:
			obj := popRef()
			if obj == gcassert.Nil {
				im.fail(m, pc-1, "null pointer dereference")
			}
			pushRef(space.GetRef(obj, in.A))
		case OpPutFInt:
			v := popInt()
			obj := popRef()
			if obj == gcassert.Nil {
				im.fail(m, pc-1, "null pointer dereference")
			}
			space.SetScalar(obj, in.A, uint64(v))
		case OpPutFRef:
			v := popRef()
			obj := popRef()
			if obj == gcassert.Nil {
				im.fail(m, pc-1, "null pointer dereference")
			}
			space.SetRef(obj, in.A, v)
		case OpNewArrInt, OpNewArrRef:
			n := popInt()
			if n < 0 {
				im.fail(m, pc-1, "negative array length %d", n)
			}
			t, what := gcassert.TWordArray, "int[]"
			if in.Op == OpNewArrRef {
				t, what = gcassert.TRefArray, "ref[]"
			}
			pushRef(im.th.NewArrayAt(t, int(n), im.siteAt(m, pc-1, what)))
		case OpALoadInt:
			i := popInt()
			arr := popRef()
			im.checkIndex(m, pc-1, arr, i)
			pushInt(int64(space.WordAt(arr, int(i))))
		case OpALoadRef:
			i := popInt()
			arr := popRef()
			im.checkIndex(m, pc-1, arr, i)
			pushRef(space.RefAt(arr, int(i)))
		case OpAStoreInt:
			v := popInt()
			i := popInt()
			arr := popRef()
			im.checkIndex(m, pc-1, arr, i)
			space.SetWordAt(arr, int(i), uint64(v))
		case OpAStoreRef:
			v := popRef()
			i := popInt()
			arr := popRef()
			im.checkIndex(m, pc-1, arr, i)
			space.SetRefAt(arr, int(i), v)
		case OpLen:
			arr := popRef()
			if arr == gcassert.Nil {
				im.fail(m, pc-1, "length of null array")
			}
			pushInt(int64(space.ArrayLen(arr)))
		case OpNewObj:
			pushRef(im.th.NewAt(im.typeIDs[in.A], im.siteAt(m, pc-1, im.Unit.Classes[in.A].Name)))
		case OpAdd:
			b, a := popInt(), popInt()
			pushInt(a + b)
		case OpSub:
			b, a := popInt(), popInt()
			pushInt(a - b)
		case OpMul:
			b, a := popInt(), popInt()
			pushInt(a * b)
		case OpDiv:
			b, a := popInt(), popInt()
			if b == 0 {
				im.fail(m, pc-1, "division by zero")
			}
			pushInt(a / b)
		case OpMod:
			b, a := popInt(), popInt()
			if b == 0 {
				im.fail(m, pc-1, "division by zero")
			}
			pushInt(a % b)
		case OpNeg:
			pushInt(-popInt())
		case OpNot:
			if popInt() == 0 {
				pushInt(1)
			} else {
				pushInt(0)
			}
		case OpEqInt, OpNeInt, OpLt, OpLe, OpGt, OpGe:
			b, a := popInt(), popInt()
			var r bool
			switch in.Op {
			case OpEqInt:
				r = a == b
			case OpNeInt:
				r = a != b
			case OpLt:
				r = a < b
			case OpLe:
				r = a <= b
			case OpGt:
				r = a > b
			case OpGe:
				r = a >= b
			}
			if r {
				pushInt(1)
			} else {
				pushInt(0)
			}
		case OpEqRef, OpNeRef:
			b, a := popRef(), popRef()
			r := a == b
			if in.Op == OpNeRef {
				r = !r
			}
			if r {
				pushInt(1)
			} else {
				pushInt(0)
			}
		case OpJmp:
			pc = in.A
		case OpJz:
			if popInt() == 0 {
				pc = in.A
			}
		case OpCall:
			callee := im.Unit.Methods[in.A]
			n := 1 + len(callee.Params)
			base := sp - n
			if gcassert.Ref(vals[base]) == gcassert.Nil {
				im.fail(m, pc-1, "method call on null receiver (%s)", callee.Sig())
			}
			args := make([]uint64, n)
			copy(args, vals[base:sp])
			// Pop the arguments (clearing ref shadows) before the call; the
			// callee frame roots them.
			for sp > base {
				sp--
				if fr.Get(sp) != gcassert.Nil {
					fr.Set(sp, gcassert.Nil)
				}
			}
			ret := im.invoke(callee, args)
			switch {
			case callee.Ret.Kind == KVoid:
			case callee.Ret.IsRef():
				pushRef(gcassert.Ref(ret))
			default:
				pushInt(int64(ret))
			}
		case OpRetVoid:
			return 0
		case OpRetInt:
			return uint64(popInt())
		case OpRetRef:
			return uint64(popRef())
		case OpPrint:
			fmt.Fprintln(im.out, popInt())
		case OpGC:
			vm.Collect()
		case OpAssertDead:
			r := popRef()
			if r == gcassert.Nil {
				im.fail(m, pc-1, "assertDead(null)")
			}
			vm.AssertDead(r)
		case OpAssertUnshared:
			r := popRef()
			if r == gcassert.Nil {
				im.fail(m, pc-1, "assertUnshared(null)")
			}
			vm.AssertUnshared(r)
		case OpAssertInstances:
			vm.AssertInstances(im.typeIDs[in.A], in.K)
		case OpAssertOwnedBy:
			ownee := popRef()
			owner := popRef()
			if owner == gcassert.Nil || ownee == gcassert.Nil {
				im.fail(m, pc-1, "assertOwnedBy(null)")
			}
			if owner == ownee {
				im.fail(m, pc-1, "assertOwnedBy: an object cannot own itself")
			}
			vm.AssertOwnedBy(owner, ownee)
		case OpRegionStart:
			if im.th.InRegion() {
				im.fail(m, pc-1, "startRegion: region already active")
			}
			im.th.StartRegion()
		case OpRegionAllDead:
			if !im.th.InRegion() {
				im.fail(m, pc-1, "assertAllDead: no active region")
			}
			pushInt(int64(im.th.AssertAllDead()))
		default:
			im.fail(m, pc-1, "internal: bad opcode %s", in.Op)
		}
	}
}

func (im *Image) checkIndex(m *MethodInfo, pc int, arr gcassert.Ref, i int64) {
	if arr == gcassert.Nil {
		im.fail(m, pc, "null array dereference")
	}
	if n := int64(im.vm.Space().ArrayLen(arr)); i < 0 || i >= n {
		im.fail(m, pc, "array index %d out of range [0,%d)", i, n)
	}
}
