// Package codegen is the EGACS backend: it lowers validated (and optimized)
// IR programs to executable form over the SPMD engine. Kernels compile to
// closure trees with slot-allocated vector registers and fully predicated
// control flow; the Pipe lowers to either a launch-per-iteration driver or —
// under Iteration Outlining — a single launch whose tasks run the driver
// loop with in-kernel barriers.
//
// The package also contains an ISPC source emitter (emit.go) that renders
// the same IR as the .ispc code the paper's compiler would generate, used
// for inspection and golden tests.
package codegen

import (
	"fmt"

	"repro/internal/compiled"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/spmd"
	"repro/internal/worklist"
)

// Module is a compiled, target-independent program, bindable to many
// (engine, graph) pairs.
type Module struct {
	Prog    *ir.Program
	kernels map[string]*kernelCode
}

// Compile validates and compiles a program.
func Compile(prog *ir.Program) (*Module, error) {
	if err := ir.Validate(prog); err != nil {
		return nil, err
	}
	m := &Module{Prog: prog, kernels: make(map[string]*kernelCode)}
	for _, k := range prog.Kernels {
		kc, err := compileKernel(prog, k)
		if err != nil {
			return nil, err
		}
		m.kernels[k.Name] = kc
	}
	return m, nil
}

// MustCompile compiles a known-valid program.
func MustCompile(prog *ir.Program) *Module {
	m, err := Compile(prog)
	if err != nil {
		panic(err)
	}
	return m
}

// Instance is a module bound to an engine, a graph and parameter values,
// ready to run.
type Instance struct {
	M      *Module
	E      *spmd.Engine
	G      *graph.CSR
	Params map[string]int32

	arrays map[string]*spmd.Array
	rowPtr *spmd.Array
	edgeDs *spmd.Array
	edgeWt *spmd.Array // nil when unweighted

	// sell and the sell* arrays are set by AttachSell: an optional second
	// layout of the same graph. CSR stays bound — row extents and arbitrary
	// edge-index gathers (e.g. MST's union phase) keep reading it; the SELL
	// arrays serve topology sweeps whose edge loops took the dense path.
	sell     *graph.SellCS
	sellPerm *spmd.Array
	sellDst  *spmd.Array
	sellEid  *spmd.Array
	sellWt   *spmd.Array // nil when unweighted

	wl  *worklist.Pair // pipeline in/out pair ("out" role)
	far *worklist.WL   // SSSP far list

	// Recovery, when non-nil, enables barrier-consistent checkpointing of
	// top-level pipe loops and rollback re-execution of recoverable faults
	// (see recovery.go). Attach before Run.
	Recovery *Recovery

	// compiledFns, when non-nil, routes every kernel launch to the
	// generated-Go backend (see EnableCompiled in backend.go). binding is the
	// execution environment handed to generated kernels, refreshed at each
	// pipe (re)entry.
	compiledFns map[string]compiled.Fn
	binding     *compiled.Binding
}

// Bind instantiates the module on an engine and graph. params may be nil;
// program defaults and src=0 apply.
func (m *Module) Bind(e *spmd.Engine, g *graph.CSR, params map[string]int32) (*Instance, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("codegen: bind: %w", err)
	}
	in := &Instance{
		M:      m,
		E:      e,
		G:      g,
		Params: map[string]int32{"src": 0},
		arrays: make(map[string]*spmd.Array),
	}
	for k, v := range m.Prog.DefaultParams {
		in.Params[k] = v
	}
	for k, v := range params {
		in.Params[k] = v
	}
	in.rowPtr = e.BindI("graph.rowptr", g.RowPtr)
	in.edgeDs = e.BindI("graph.edgedst", g.EdgeDst)
	if g.Weighted() {
		in.edgeWt = e.BindI("graph.edgewt", g.Weight)
	}
	n := int(g.NumNodes())
	for _, d := range m.Prog.Arrays {
		var sz int
		switch d.Size {
		case ir.SizeNodes:
			sz = n
		case ir.SizeEdges:
			sz = int(g.NumEdges())
		case ir.SizeOne:
			sz = 1
		}
		if d.T == ir.F32 {
			in.arrays[d.Name] = e.AllocF(d.Name, sz)
		} else {
			in.arrays[d.Name] = e.AllocI(d.Name, sz)
		}
	}
	if m.Prog.WLInit != ir.WLNone {
		capacity := n + 16
		if m.Prog.WLCapEdges {
			capacity = int(g.NumEdges()) + n + 16
		}
		in.wl = worklist.NewPair(e, "pipe", capacity)
		in.far = worklist.New(e, "far", capacity)
		if e.DeferredExec() {
			// Deferred tasks can stage duplicate claims for the same node
			// (each wins against its own view), so a round's pushes may
			// exceed the live-mode capacity bound; let the lists grow.
			in.wl.In.Grow = true
			in.wl.Out.Grow = true
			in.far.Grow = true
		}
	}
	return in, nil
}

// HasSellPath reports whether any kernel of the module compiled a SELL
// dense edge loop — i.e. whether attaching a SELL layout can change how the
// program executes at all.
func (m *Module) HasSellPath() bool {
	for _, kc := range m.kernels {
		if kc.sellCapable {
			return true
		}
	}
	return false
}

// AttachSell binds a SELL-C-σ layout of the instance's graph so eligible
// edge loops can take the dense-column path. Call between Bind and Run: the
// arrays are then registered before the first checkpoint cut, so a rollback
// never drops them from the registry (like the CSR bindings they are
// read-only inputs, and checkpoints do not copy them), and ResetAll-based
// engine reuse simply rebinds on the next Bind/AttachSell pair. Attaching a
// layout whose C differs from the engine's vector width is allowed but inert:
// the runtime dispatch falls back to CSR. Passing nil detaches.
func (in *Instance) AttachSell(s *graph.SellCS) error {
	if s == nil {
		in.sell, in.sellPerm, in.sellDst, in.sellEid, in.sellWt = nil, nil, nil, nil, nil
		return nil
	}
	if s.NumNodes() != in.G.NumNodes() {
		return fmt.Errorf("codegen: attach sell: layout has %d nodes, graph %d",
			s.NumNodes(), in.G.NumNodes())
	}
	if s.LiveCells()+s.FallbackEdges() != int64(in.G.NumEdges()) {
		return fmt.Errorf("codegen: attach sell: layout covers %d edges, graph %d",
			s.LiveCells()+s.FallbackEdges(), in.G.NumEdges())
	}
	in.sell = s
	in.sellPerm = in.E.BindI("graph.sell.perm", s.Perm)
	in.sellDst = in.E.BindI("graph.sell.dst", s.Dst)
	in.sellEid = in.E.BindI("graph.sell.eid", s.EdgeID)
	if s.Wt != nil {
		in.sellWt = in.E.BindI("graph.sell.wt", s.Wt)
	}
	return nil
}

// Sell returns the attached SELL layout, nil when running pure CSR.
func (in *Instance) Sell() *graph.SellCS { return in.sell }

// Array returns a bound data array by name (for reading results).
func (in *Instance) Array(name string) *spmd.Array { return in.arrays[name] }

// ArrayI returns the int contents of a bound array.
func (in *Instance) ArrayI(name string) []int32 {
	a := in.arrays[name]
	if a == nil {
		return nil
	}
	return a.I
}

// ArrayF returns the float contents of a bound array.
func (in *Instance) ArrayF(name string) []float32 {
	a := in.arrays[name]
	if a == nil {
		return nil
	}
	return a.F
}

// FootprintBytes returns the bytes of graph + algorithm state, the quantity
// Table IX limits physical memory against.
func (in *Instance) FootprintBytes() int64 {
	total := in.G.FootprintBytes()
	if in.sell != nil {
		total += in.sell.FootprintBytes()
	}
	for _, a := range in.arrays {
		total += a.Bytes()
	}
	if in.wl != nil {
		total += in.wl.In.Items.Bytes() + in.wl.Out.Items.Bytes() + in.far.Items.Bytes()
	}
	return total
}

// initState (re)initializes arrays and worklists per their declarations;
// this setup is untimed, matching the methodology of timing only the
// algorithm (Section IV: "excluding graph loading and output writing").
func (in *Instance) initState() error {
	src := in.Params["src"]
	nn := in.G.NumNodes()
	for _, d := range in.M.Prog.Arrays {
		a := in.arrays[d.Name]
		switch d.Init {
		case ir.InitZero:
			if a.I != nil {
				a.FillI(0)
			} else {
				a.FillF(0)
			}
		case ir.InitSplat:
			if a.I != nil {
				a.FillI(d.InitI)
			} else {
				a.FillF(d.InitF)
			}
		case ir.InitIota:
			for i := range a.I {
				a.I[i] = int32(i)
			}
		case ir.InitSplatExceptSrc:
			a.FillI(d.InitI)
			if int(src) < len(a.I) {
				a.I[src] = d.SrcVal
			}
		case ir.InitHash:
			for i := range a.I {
				a.I[i] = hash32(int32(i)) & 0x7fffffff
			}
		case ir.InitDegree:
			for i := int32(0); i < nn && int(i) < len(a.I); i++ {
				a.I[i] = in.G.Degree(i)
			}
		case ir.InitInvN:
			inv := float32(1) / float32(nn)
			a.FillF(inv)
		}
	}
	switch in.M.Prog.WLInit {
	case ir.WLSrc:
		in.wl.In.Clear()
		in.wl.Out.Clear()
		in.far.Clear()
		if err := in.wl.In.InitWith(src); err != nil {
			return err
		}
	case ir.WLAllNodes:
		in.wl.In.Clear()
		in.wl.Out.Clear()
		in.far.Clear()
		if err := in.wl.In.InitSequence(nn); err != nil {
			return err
		}
	}
	// Near-far threshold starts at one delta.
	if d, ok := in.Params["delta"]; ok {
		in.Params["threshold"] = d
	}
	return nil
}

func hash32(x int32) int32 {
	u := uint32(x) * 2654435761
	u ^= u >> 15
	u *= 2246822519
	u ^= u >> 13
	return int32(u)
}

// Run initializes state and executes the pipe, advancing the engine's
// modeled clock and statistics. Failures — bounds violations, worklist
// overflows, budget exhaustion, stalled loops, recovered kernel panics,
// invariant violations — surface as typed errors matching the internal/fault
// taxonomy. With Recovery attached, recoverable faults roll back to the last
// verified checkpoint and re-execute (bounded per checkpoint) before the
// error escapes to the caller.
func (in *Instance) Run() error {
	if err := in.initState(); err != nil {
		return err
	}
	if rec := in.Recovery; rec != nil {
		rec.reset()
		in.E.DropCheckpoint() // a re-run must not roll back into the previous run
	}
	var rc resumeCursor
	for {
		err := in.runPipe(rc)
		if err == nil {
			return nil
		}
		if !in.canRecover() || !fault.Recoverable(err) {
			return err
		}
		rc = in.rollback()
	}
}

func (in *Instance) runPipe(rc resumeCursor) error {
	if in.compiledFns != nil {
		in.refreshBinding()
	}
	if in.M.Prog.Outline == ir.Outlined {
		return in.runOutlined(rc)
	}
	return in.runHost(rc)
}
